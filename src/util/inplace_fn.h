// Small-buffer move-only callable — the simulator's scheduling entry.
//
// std::function heap-allocates any closure beyond its tiny (16-byte on
// libstdc++) inline buffer, which puts one malloc/free on every scheduled
// simulator action — the dominant allocation of a discrete-event run (the
// network's in-flight closure captures a whole NetMessage variant). This
// type stores closures up to `Capacity` bytes inline inside the
// simulator's slab cell itself; larger or throwing-move closures
// transparently fall back to a single heap cell so correctness never
// depends on the capacity guess. Move-only (a closure moves once, into
// its slab cell, and runs there; it is never copied) and deliberately
// minimal: no target_type, no allocator, void() signature only.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace epto::util {

template <std::size_t Capacity>
class InplaceFn {
 public:
  InplaceFn() noexcept = default;
  InplaceFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wrap any callable f with signature void(). Stored inline when it
  /// fits and is nothrow-movable; otherwise in one heap cell.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InplaceFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
      vtable_ = &inlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buffer_)) D*(new D(std::forward<F>(f)));
      vtable_ = &heapVTable<D>;
    }
  }

  InplaceFn(InplaceFn&& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(other.buffer_, buffer_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  InplaceFn& operator=(InplaceFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.vtable_ != nullptr) {
        other.vtable_->relocate(other.buffer_, buffer_);
        vtable_ = other.vtable_;
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  InplaceFn(const InplaceFn&) = delete;
  InplaceFn& operator=(const InplaceFn&) = delete;

  ~InplaceFn() { reset(); }

  void operator()() { vtable_->invoke(buffer_); }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }
  [[nodiscard]] friend bool operator==(const InplaceFn& fn, std::nullptr_t) noexcept {
    return fn.vtable_ == nullptr;
  }
  [[nodiscard]] friend bool operator!=(const InplaceFn& fn, std::nullptr_t) noexcept {
    return fn.vtable_ != nullptr;
  }

  /// True when the wrapped callable lives inline (test/telemetry hook).
  [[nodiscard]] bool isInline() const noexcept {
    return vtable_ != nullptr && vtable_->inlineStorage;
  }

 private:
  struct VTable {
    void (*invoke)(std::byte*);
    /// Move-construct into dst from src, then destroy src.
    void (*relocate)(std::byte*, std::byte*) noexcept;
    void (*destroy)(std::byte*) noexcept;
    bool inlineStorage;
  };

  template <typename D>
  static constexpr VTable inlineVTable{
      [](std::byte* buf) { (*std::launder(reinterpret_cast<D*>(buf)))(); },
      [](std::byte* src, std::byte* dst) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (static_cast<void*>(dst)) D(std::move(*from));
        from->~D();
      },
      [](std::byte* buf) noexcept { std::launder(reinterpret_cast<D*>(buf))->~D(); },
      true,
  };

  template <typename D>
  static constexpr VTable heapVTable{
      [](std::byte* buf) { (**std::launder(reinterpret_cast<D**>(buf)))(); },
      [](std::byte* src, std::byte* dst) noexcept {
        D** from = std::launder(reinterpret_cast<D**>(src));
        ::new (static_cast<void*>(dst)) D*(*from);
        // The pointer moved; nothing to destroy at the source.
      },
      [](std::byte* buf) noexcept { delete *std::launder(reinterpret_cast<D**>(buf)); },
      false,
  };

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buffer_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buffer_[Capacity];
  const VTable* vtable_ = nullptr;
};

}  // namespace epto::util

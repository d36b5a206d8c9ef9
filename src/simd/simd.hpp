#pragma once
/// \file simd.hpp
/// Portable explicit SIMD types modeled on std::experimental::simd.
///
/// The paper's A64FX port hinges on one mechanism: Kokkos kernels are written
/// once against an explicit SIMD *type*, and the concrete instruction set
/// (SVE on A64FX, AVX on x86, scalar on GPUs) is chosen by swapping the type
/// at compile time.  This header reproduces that mechanism:
///
///   * `simd<T, simd_abi::scalar>`    — one lane, compiles to scalar code
///     (the paper's "without SVE" configuration and the GPU fallback);
///   * `simd<T, simd_abi::fixed<N>>`  — N lanes via GCC vector extensions
///     (stands in for the SVE types; on this machine it emits SSE/AVX).
///
/// Kernels are templated on the simd type only; no kernel mentions an ISA.
/// `simd<T>` defaults to the widest ABI the target supports, and defining
/// OCTO_SIMD_FORCE_SCALAR rebinds the default to scalar — this is the switch
/// the paper flips for Fig. 7.
///
/// `fma(a, b, c)` is one fused multiply-add, a * b + c rounded once, on every
/// ABI and every target: the packed instruction where the target has one,
/// std::fma per lane otherwise.  It never depends on whether the compiler
/// contracts a * b + c, so a kernel that spells out its fused operations and
/// switches contraction off (OCTO_NO_CONTRACT_BEGIN / _END) rounds the same
/// way whatever the flags of the file that includes it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

/// Bracket function definitions whose rounding is fixed in the source: no
/// floating-point contraction happens between the two, so every fused
/// multiply-add there is an explicit `fma` and every other product is
/// rounded on its own.  GCC contracts inlined code under the caller's mode,
/// so it never inlines a function defined here into a caller outside such a
/// region (it runs as a call there); into a caller inside one it does.
#if defined(__clang__)
#define OCTO_NO_CONTRACT_BEGIN \
  _Pragma("float_control(push)") _Pragma("clang fp contract(off)")
#define OCTO_NO_CONTRACT_END _Pragma("float_control(pop)")
#elif defined(__GNUC__)
#define OCTO_NO_CONTRACT_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC optimize(\"fp-contract=off\")")
#define OCTO_NO_CONTRACT_END _Pragma("GCC pop_options")
#else
#define OCTO_NO_CONTRACT_BEGIN
#define OCTO_NO_CONTRACT_END
#endif

/// Unroll the fixed-trip loop that follows completely (trip counts up to
/// 16), so indices into constant tables become constants.
#if defined(__clang__)
#define OCTO_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define OCTO_UNROLL _Pragma("GCC unroll 16")
#else
#define OCTO_UNROLL
#endif

namespace octo {

namespace simd_abi {

/// One-lane ABI: every operation is ordinary scalar arithmetic.
struct scalar {};

/// Fixed-width ABI with N lanes implemented on GCC vector extensions.
template <int N>
struct fixed {
  static_assert(N > 0 && (N & (N - 1)) == 0, "lane count must be a power of 2");
};

namespace detail {
/// Widest vector register in bytes used for the native ABI.
///
/// Note: 64-byte (AVX-512) vector-extension types are deliberately NOT used
/// even when __AVX512F__ is available — GCC 12.2's tree vectorizer
/// miscompiles mixed scalar/vector loops over 64-byte vector types at -O2
/// (observed: dropped diagonal terms in the gravity D2 tensors; the same
/// code is correct at 16/32 bytes, at -O0/-O1, and with
/// -fno-tree-vectorize).  Define OCTO_SIMD_BYTES to override.
#if defined(OCTO_SIMD_BYTES)
inline constexpr int native_bytes = OCTO_SIMD_BYTES;
#elif defined(__AVX__)
inline constexpr int native_bytes = 32;
#elif defined(__SSE2__) || defined(__ARM_NEON) || defined(__aarch64__)
inline constexpr int native_bytes = 16;
#else
inline constexpr int native_bytes = 16;
#endif
}  // namespace detail

/// The widest ABI for element type T on this target (SVE-equivalent width).
template <typename T>
using native = fixed<detail::native_bytes / static_cast<int>(sizeof(T))>;

#if defined(OCTO_SIMD_FORCE_SCALAR)
template <typename T>
using compiled_default = scalar;
#else
template <typename T>
using compiled_default = native<T>;
#endif

}  // namespace simd_abi

template <typename T, typename Abi = simd_abi::compiled_default<T>>
class simd;
template <typename T, typename Abi = simd_abi::compiled_default<T>>
class simd_mask;

// ---------------------------------------------------------------------------
// scalar ABI
// ---------------------------------------------------------------------------

template <typename T>
class simd_mask<T, simd_abi::scalar> {
 public:
  static constexpr int size() { return 1; }

  simd_mask() = default;
  explicit simd_mask(bool v) : v_(v) {}

  bool operator[](int) const { return v_; }

  friend simd_mask operator&&(simd_mask a, simd_mask b) {
    return simd_mask(a.v_ && b.v_);
  }
  friend simd_mask operator||(simd_mask a, simd_mask b) {
    return simd_mask(a.v_ || b.v_);
  }
  friend simd_mask operator!(simd_mask a) { return simd_mask(!a.v_); }

  friend bool all_of(simd_mask m) { return m.v_; }
  friend bool any_of(simd_mask m) { return m.v_; }
  friend bool none_of(simd_mask m) { return !m.v_; }
  friend int popcount(simd_mask m) { return m.v_ ? 1 : 0; }

 private:
  bool v_ = false;
};

template <typename T>
class simd<T, simd_abi::scalar> {
 public:
  using value_type = T;
  using abi_type = simd_abi::scalar;
  using mask_type = simd_mask<T, simd_abi::scalar>;

  static constexpr int size() { return 1; }

  simd() = default;
  simd(T v) : v_(v) {}  // NOLINT: implicit broadcast, as in std::simd

  T operator[](int) const { return v_; }
  void set(int, T v) { v_ = v; }

  /// Load `size()` contiguous elements starting at \p src.
  void copy_from(const T* src) { v_ = *src; }
  void copy_to(T* dst) const { *dst = v_; }

  simd& operator+=(simd o) { v_ += o.v_; return *this; }
  simd& operator-=(simd o) { v_ -= o.v_; return *this; }
  simd& operator*=(simd o) { v_ *= o.v_; return *this; }
  simd& operator/=(simd o) { v_ /= o.v_; return *this; }

  friend simd operator+(simd a, simd b) { return a += b; }
  friend simd operator-(simd a, simd b) { return a -= b; }
  friend simd operator*(simd a, simd b) { return a *= b; }
  friend simd operator/(simd a, simd b) { return a /= b; }
  friend simd operator-(simd a) { return simd(-a.v_); }

  friend mask_type operator<(simd a, simd b) { return mask_type(a.v_ < b.v_); }
  friend mask_type operator<=(simd a, simd b) {
    return mask_type(a.v_ <= b.v_);
  }
  friend mask_type operator>(simd a, simd b) { return mask_type(a.v_ > b.v_); }
  friend mask_type operator>=(simd a, simd b) {
    return mask_type(a.v_ >= b.v_);
  }
  friend mask_type operator==(simd a, simd b) {
    return mask_type(a.v_ == b.v_);
  }

  friend T reduce(simd a) { return a.v_; }
  friend T hmin(simd a) { return a.v_; }
  friend T hmax(simd a) { return a.v_; }

  friend simd sqrt(simd a) { return simd(std::sqrt(a.v_)); }
  friend simd abs(simd a) { return simd(std::abs(a.v_)); }
  friend simd min(simd a, simd b) { return simd(std::min(a.v_, b.v_)); }
  friend simd max(simd a, simd b) { return simd(std::max(a.v_, b.v_)); }
  friend simd fma(simd a, simd b, simd c) {
    return simd(std::fma(a.v_, b.v_, c.v_));
  }
  friend simd copysign(simd a, simd b) {
    return simd(std::copysign(a.v_, b.v_));
  }
  /// Lanewise select: m ? a : b.
  friend simd select(mask_type m, simd a, simd b) {
    return all_of(m) ? a : b;
  }

 private:
  T v_{};
};

// ---------------------------------------------------------------------------
// fixed<N> ABI on GCC vector extensions
// ---------------------------------------------------------------------------

namespace simd_detail {

template <typename T, int N>
struct vec_holder {
  typedef T type __attribute__((vector_size(N * sizeof(T))));
};

/// Signed integer type with the same width as T (mask element type).
template <std::size_t Bytes>
struct int_of_size;
template <>
struct int_of_size<4> {
  using type = std::int32_t;
};
template <>
struct int_of_size<8> {
  using type = std::int64_t;
};

template <typename T, int N>
struct mask_holder {
  using int_t = typename int_of_size<sizeof(T)>::type;
  typedef int_t type __attribute__((vector_size(N * sizeof(T))));
};

}  // namespace simd_detail

template <typename T, int N>
class simd_mask<T, simd_abi::fixed<N>> {
  using vec_t = typename simd_detail::mask_holder<T, N>::type;

 public:
  static constexpr int size() { return N; }

  simd_mask() : v_{} {}
  explicit simd_mask(bool b) {
    using int_t = typename simd_detail::int_of_size<sizeof(T)>::type;
    const int_t fill = b ? static_cast<int_t>(-1) : int_t(0);
    for (int i = 0; i < N; ++i) v_[i] = fill;
  }
  explicit simd_mask(vec_t raw) : v_(raw) {}

  bool operator[](int i) const { return v_[i] != 0; }
  vec_t raw() const { return v_; }

  friend simd_mask operator&&(simd_mask a, simd_mask b) {
    return simd_mask(a.v_ & b.v_);
  }
  friend simd_mask operator||(simd_mask a, simd_mask b) {
    return simd_mask(a.v_ | b.v_);
  }
  friend simd_mask operator!(simd_mask a) { return simd_mask(~a.v_); }

  friend bool all_of(simd_mask m) {
    for (int i = 0; i < N; ++i)
      if (m.v_[i] == 0) return false;
    return true;
  }
  friend bool any_of(simd_mask m) {
    for (int i = 0; i < N; ++i)
      if (m.v_[i] != 0) return true;
    return false;
  }
  friend bool none_of(simd_mask m) { return !any_of(m); }
  friend int popcount(simd_mask m) {
    int c = 0;
    for (int i = 0; i < N; ++i) c += (m.v_[i] != 0);
    return c;
  }

 private:
  vec_t v_;
};

template <typename T, int N>
class simd<T, simd_abi::fixed<N>> {
  using vec_t = typename simd_detail::vec_holder<T, N>::type;

 public:
  using value_type = T;
  using abi_type = simd_abi::fixed<N>;
  using mask_type = simd_mask<T, simd_abi::fixed<N>>;

  static constexpr int size() { return N; }

  simd() : v_{} {}
  simd(T broadcast) {  // NOLINT: implicit broadcast, as in std::simd
    for (int i = 0; i < N; ++i) v_[i] = broadcast;
  }
  explicit simd(vec_t raw) : v_(raw) {}

  T operator[](int i) const { return v_[i]; }
  void set(int i, T v) { v_[i] = v; }
  vec_t raw() const { return v_; }

  void copy_from(const T* src) {
    for (int i = 0; i < N; ++i) v_[i] = src[i];
  }
  void copy_to(T* dst) const {
    for (int i = 0; i < N; ++i) dst[i] = v_[i];
  }
  simd& operator+=(simd o) { v_ += o.v_; return *this; }
  simd& operator-=(simd o) { v_ -= o.v_; return *this; }
  simd& operator*=(simd o) { v_ *= o.v_; return *this; }
  simd& operator/=(simd o) { v_ /= o.v_; return *this; }

  friend simd operator+(simd a, simd b) { return a += b; }
  friend simd operator-(simd a, simd b) { return a -= b; }
  friend simd operator*(simd a, simd b) { return a *= b; }
  friend simd operator/(simd a, simd b) { return a /= b; }
  friend simd operator-(simd a) { return simd(-a.v_); }

  friend mask_type operator<(simd a, simd b) {
    return mask_type(a.v_ < b.v_);
  }
  friend mask_type operator<=(simd a, simd b) {
    return mask_type(a.v_ <= b.v_);
  }
  friend mask_type operator>(simd a, simd b) {
    return mask_type(a.v_ > b.v_);
  }
  friend mask_type operator>=(simd a, simd b) {
    return mask_type(a.v_ >= b.v_);
  }
  friend mask_type operator==(simd a, simd b) {
    return mask_type(a.v_ == b.v_);
  }

  friend T reduce(simd a) {
    T s = a.v_[0];
    for (int i = 1; i < N; ++i) s += a.v_[i];
    return s;
  }
  friend T hmin(simd a) {
    T s = a.v_[0];
    for (int i = 1; i < N; ++i) s = std::min(s, a.v_[i]);
    return s;
  }
  friend T hmax(simd a) {
    T s = a.v_[0];
    for (int i = 1; i < N; ++i) s = std::max(s, a.v_[i]);
    return s;
  }

  // Lanewise math.  At -O2 -march=native -mno-avx512f, abs (vandpd) and
  // min/max (vminpd/vmaxpd) already compile to single vector instructions,
  // and copysign to three vector bit operations.  A std::sqrt lane loop does
  // not: with math-errno on, GCC emits one scalar vsqrtsd per lane plus a
  // libm call for the errno path.  sqrt therefore uses the packed intrinsic
  // for the native 16- and 32-byte widths; the lane loop is the fallback for
  // other widths (fixed<8> of double under AVX2) and non-x86 targets.  IEEE
  // sqrt is correctly rounded, so both forms give bitwise identical results.
  // fma takes the same shape: the packed vfmadd on FMA targets, std::fma per
  // lane elsewhere, both rounding once (a * b + c would fuse only where the
  // compiler contracts).
  friend simd sqrt(simd a) {
#if defined(__AVX__)
    if constexpr (sizeof(vec_t) == 32 && std::is_same_v<T, double>)
      return simd(_mm256_sqrt_pd(a.v_));
    if constexpr (sizeof(vec_t) == 32 && std::is_same_v<T, float>)
      return simd(_mm256_sqrt_ps(a.v_));
#endif
#if defined(__SSE2__)
    if constexpr (sizeof(vec_t) == 16 && std::is_same_v<T, double>)
      return simd(_mm_sqrt_pd(a.v_));
    if constexpr (sizeof(vec_t) == 16 && std::is_same_v<T, float>)
      return simd(_mm_sqrt_ps(a.v_));
#endif
    simd r;
    for (int i = 0; i < N; ++i) r.v_[i] = std::sqrt(a.v_[i]);
    return r;
  }
  friend simd abs(simd a) {
    simd r;
    for (int i = 0; i < N; ++i) r.v_[i] = std::abs(a.v_[i]);
    return r;
  }
  friend simd min(simd a, simd b) { return select(a < b, a, b); }
  friend simd max(simd a, simd b) { return select(a > b, a, b); }
  friend simd fma(simd a, simd b, simd c) {
#if defined(__FMA__)
    if constexpr (sizeof(vec_t) == 32 && std::is_same_v<T, double>)
      return simd(_mm256_fmadd_pd(a.v_, b.v_, c.v_));
    if constexpr (sizeof(vec_t) == 32 && std::is_same_v<T, float>)
      return simd(_mm256_fmadd_ps(a.v_, b.v_, c.v_));
    if constexpr (sizeof(vec_t) == 16 && std::is_same_v<T, double>)
      return simd(_mm_fmadd_pd(a.v_, b.v_, c.v_));
    if constexpr (sizeof(vec_t) == 16 && std::is_same_v<T, float>)
      return simd(_mm_fmadd_ps(a.v_, b.v_, c.v_));
#endif
    simd r;
    for (int i = 0; i < N; ++i) r.v_[i] = std::fma(a.v_[i], b.v_[i], c.v_[i]);
    return r;
  }
  friend simd copysign(simd a, simd b) {
    simd r;
    for (int i = 0; i < N; ++i) r.v_[i] = std::copysign(a.v_[i], b.v_[i]);
    return r;
  }
  friend simd select(mask_type m, simd a, simd b) {
    return simd(m.raw() ? a.v_ : b.v_);
  }

 private:
  vec_t v_;
};

// ---------------------------------------------------------------------------
// where-expression (assign-under-mask, as in std::experimental::simd)
// ---------------------------------------------------------------------------

template <typename T, typename Abi>
class where_expression {
 public:
  where_expression(simd_mask<T, Abi> m, simd<T, Abi>& v) : m_(m), v_(v) {}

  void operator=(simd<T, Abi> rhs) { v_ = select(m_, rhs, v_); }
  void operator+=(simd<T, Abi> rhs) { v_ = select(m_, v_ + rhs, v_); }
  void operator-=(simd<T, Abi> rhs) { v_ = select(m_, v_ - rhs, v_); }
  void operator*=(simd<T, Abi> rhs) { v_ = select(m_, v_ * rhs, v_); }

 private:
  simd_mask<T, Abi> m_;
  simd<T, Abi>& v_;
};

template <typename T, typename Abi>
where_expression<T, Abi> where(simd_mask<T, Abi> m, simd<T, Abi>& v) {
  return {m, v};
}

/// Number of full simd packs in a loop of \p n elements.
template <typename Simd>
constexpr int simd_full_packs(int n) {
  return n / Simd::size();
}

/// Trip count remainder that must run scalar (or masked).
template <typename Simd>
constexpr int simd_remainder(int n) {
  return n % Simd::size();
}

}  // namespace octo

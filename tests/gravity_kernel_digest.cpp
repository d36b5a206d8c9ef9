// Drives every FMM kernel on seeded inputs and hashes every output bit.
//
// gravity_test links this file twice, compiled with -ffp-contract=fast and
// with -ffp-contract=off; OCTO_KERNEL_DIGEST names each build's entry point.
// The kernels fix their rounding in the source, so both builds must return
// the same hash (GravityKernels.RoundingIsPinned).  The inputs are built
// from the seed with exact operations only (integer bits, a power-of-two
// scale, one subtraction), so they cannot depend on the contraction mode.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/random.hpp"
#include "gravity/kernels.hpp"

namespace octo::gravity {

namespace {

/// FNV-1a over the bytes of every value added.
struct fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(real v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  template <typename P>
  void add_pack(const P& v) {
    for (int l = 0; l < P::size(); ++l) add(v[l]);
  }
};

/// Uniform draws in [-0.5, 0.5).
struct draws {
  std::uint64_t state;
  real next() {
    return std::ldexp(real(splitmix64(state) >> 11), -53) - real(0.5);
  }
  template <typename P>
  P pack(real offset) {
    P v;
    for (int l = 0; l < P::size(); ++l) v.set(l, next() + offset);
    return v;
  }
};

/// Rounds t = 1, 2, 3 (mod 4) set displacement component 1, 2, 0 to -0,
/// +0, -0: the D3 corrections start from 0 + r, which maps -0 to +0.
bool zeroed(int t, int axis) { return t % 4 != 0 && axis == t % 4 % 3; }
real zero_of(int t) { return t % 4 == 2 ? real(0) : -real(0); }

constexpr int rounds = 48;

template <typename P>
void pack_kernels(draws& in, fnv1a& out) {
  const real G = in.next() + real(1);
  pack_expansion<P> full, leaf;
  for (int t = 0; t < rounds; ++t) {
    P r[3];
    for (int a = 0; a < 3; ++a) {
      r[a] = in.pack<P>(a == 0 ? real(1) : real(0));
      if (zeroed(t, a)) r[a] = P(zero_of(t));
    }
    pack_derivs<P> d;
    compute_derivs(r[0], r[1], r[2], G, d);
    out.add_pack(d.d0);
    for (const P& v : d.d1) out.add_pack(v);
    for (const P& v : d.d2) out.add_pack(v);
    for (const P& v : d.d3) out.add_pack(v);

    pack_multipole<P> src;
    src.m = in.pack<P>(real(1));
    for (P& q : src.q) q = in.pack<P>(real(0));
    for (P& o : src.o) o = in.pack<P>(real(0));
    m2l_pack<P, true>(src, d, full);
    m2l_pack<P, false>(src, d, leaf);
    p2p_pack(src.m, r[0], r[1], r[2], G, leaf);
  }
  for (const pack_expansion<P>* e : {&full, &leaf}) {
    out.add_pack(e->l0);
    for (const P& v : e->l1) out.add_pack(v);
    for (const P& v : e->l2) out.add_pack(v);
    for (const P& v : e->l3) out.add_pack(v);
  }
}

void shift_kernels(draws& in, fnv1a& out) {
  expansion shifted;
  multipole parent;
  parent.m = in.next() + real(4);
  parent.com = rvec3{in.next(), in.next(), in.next()};
  for (int t = 0; t < rounds; ++t) {
    expansion e;
    e.l0 = in.next();
    for (real& v : e.l1) v = in.next();
    for (real& v : e.l2) v = in.next();
    for (real& v : e.l3) v = in.next();
    real h[3];
    for (int a = 0; a < 3; ++a) {
      h[a] = in.next();
      if (zeroed(t, a)) h[a] = zero_of(t);
    }
    l2l_shift(e, rvec3{h[0], h[1], h[2]}, shifted);

    multipole child;
    child.m = in.next() + real(1);
    child.com = parent.com + rvec3{h[0], h[1], h[2]};
    for (real& v : child.q) v = in.next();
    for (real& v : child.o) v = in.next();
    m2m_accumulate(child, parent);
  }
  out.add(shifted.l0);
  for (const real v : shifted.l1) out.add(v);
  for (const real v : shifted.l2) out.add(v);
  for (const real v : shifted.l3) out.add(v);
  for (const real v : parent.q) out.add(v);
  for (const real v : parent.o) out.add(v);
}

}  // namespace

std::uint64_t OCTO_KERNEL_DIGEST(std::uint64_t seed) {
  draws in{seed};
  fnv1a out;
  pack_kernels<simd<real, simd_abi::scalar>>(in, out);
  pack_kernels<simd<real, simd_abi::native<real>>>(in, out);
  shift_kernels(in, out);
  return out.h;
}

}  // namespace octo::gravity

// Codegen probes for the simd_codegen ctest: compiled with the project flags,
// then disassembled.  The native-ABI sqrt must be one packed instruction
// (sqrtpd/sqrtps) and never the std::sqrt lane loop with its libm errno call.
// The native-ABI fma must be a packed vfmadd even where the compiler
// contracts nothing: it is fused by contract, not by contraction.
#include "simd/simd.hpp"

octo::simd<double> octo_simd_codegen_probe(octo::simd<double> a) {
  return sqrt(a);
}

OCTO_NO_CONTRACT_BEGIN

octo::simd<double> octo_simd_codegen_fma_probe(octo::simd<double> a,
                                               octo::simd<double> b,
                                               octo::simd<double> c) {
  return fma(a, b, c);
}

OCTO_NO_CONTRACT_END

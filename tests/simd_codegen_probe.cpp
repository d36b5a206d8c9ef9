// Codegen probe for the simd_codegen ctest: compiled with the project flags,
// then disassembled.  The native-ABI sqrt must be one packed instruction
// (sqrtpd/sqrtps) and never the std::sqrt lane loop with its libm errno call.
#include "simd/simd.hpp"

octo::simd<double> octo_simd_codegen_probe(octo::simd<double> a) {
  return sqrt(a);
}

# Disassembles the simd_codegen probe object and fails unless the sqrt probe
# holds a packed sqrt (sqrtpd/sqrtps) and no call to the libm sqrt, and the
# fma probe (compiled with contraction off) holds a packed vfmadd...pd.
#
#   cmake -DOBJDUMP=<objdump> -DPROBE=<probe object> -P simd_codegen_check.cmake
execute_process(COMMAND ${OBJDUMP} -dr --no-show-raw-insn ${PROBE}
  OUTPUT_VARIABLE asm ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "objdump failed on ${PROBE}: ${err}")
endif()
if(NOT asm MATCHES "sqrtp[ds]")
  message(FATAL_ERROR "no packed sqrtp[ds] in the probe; native simd sqrt "
    "is back to a scalar lane loop:\n${asm}")
endif()
# In an object file the call target is unresolved; the relocation under the
# call names the libm symbol.
if(asm MATCHES "call[^\n]*<sqrt" OR asm MATCHES "R_[A-Z0-9_]+[ \t]+sqrt")
  message(FATAL_ERROR "the probe calls sqrt (math-errno path of the scalar "
    "lane loop):\n${asm}")
endif()
# The fma probe's own disassembly: from its (mangled) label to the next
# blank line.
string(REGEX MATCH "<_Z[0-9]+octo_simd_codegen_fma_probe[^\n]*>:\n([^\n]+\n)+"
  fma_asm "${asm}")
if(NOT fma_asm)
  message(FATAL_ERROR "no octo_simd_codegen_fma_probe in the probe:\n${asm}")
endif()
if(NOT fma_asm MATCHES "vfn?m(add|sub)[0-9]+pd")
  message(FATAL_ERROR "the fma probe holds no packed vfmadd...pd; native "
    "simd fma is back to an unfused multiply and add:\n${fma_asm}")
endif()
message(STATUS "simd_codegen: packed sqrt, no sqrt call, packed fused fma")

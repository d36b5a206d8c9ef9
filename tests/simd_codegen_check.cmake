# Disassembles the simd_codegen probe object and fails unless it holds a
# packed sqrt (sqrtpd/sqrtps) and no call to the libm sqrt.
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
message(STATUS "simd_codegen: packed sqrt, no sqrt call")

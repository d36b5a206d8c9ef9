# Runs an example on an input it must reject and fails unless the example
# exits with status 2 and prints the expected message: an octo::error that
# escapes main instead aborts through std::terminate (SIGABRT), whose
# handler prints the same message, so the text alone proves nothing.
#
#   cmake -DEXE=<example> "-DARGS=<arg;arg>" "-DENV=<VAR=value;...>"
#         -DEXPECT=<regex> -P example_error_check.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${EXE} ${ARGS}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARGS} exited with '${rc}', want 2:\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
message(STATUS "${EXE}: exit 2, '${EXPECT}' on stderr")

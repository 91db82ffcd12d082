# Runs BINARY with the ;-separated ARGS and fails unless it exits with
# status EXPECTED and, when STDERR is given, unless that text appears in
# its standard error:
#
#   cmake -DBINARY=<bench> -DARGS=<a;b> -DEXPECTED=<n> [-DSTDERR=<text>] \
#         -P bench/golden/check_exit_status.cmake
foreach(var BINARY ARGS EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_exit_status.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND "${BINARY}" ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL EXPECTED)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with status ${status}, "
                      "expected ${EXPECTED}\n${out}${err}")
endif()
if(DEFINED STDERR)
  string(FIND "${err}" "${STDERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${BINARY} ${ARGS}: stderr lacks '${STDERR}'\n"
                        "${err}")
  endif()
endif()

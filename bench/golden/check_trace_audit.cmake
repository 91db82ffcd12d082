# Runs one bench traced and audits its decision records: BENCH with the
# ;-separated BENCH_ARGS plus trace=trace inside WORKDIR, then
# `trace_query audit` over the JSONL it streams with the ;-separated
# AUDIT_ARGS (the --require-* assertions). Fails unless both exit 0:
#
#   cmake -DBENCH=<ablation_faults> -DBENCH_ARGS=<a;b> -DQUERY=<trace_query> \
#         -DAUDIT_ARGS=<c;d> -DWORKDIR=<dir> \
#         -P bench/golden/check_trace_audit.cmake
foreach(var BENCH BENCH_ARGS QUERY AUDIT_ARGS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_audit.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/trace")
execute_process(
  COMMAND "${BENCH}" ${BENCH_ARGS} trace=trace
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${WORKDIR}/stdout.txt"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${BENCH_ARGS} trace=trace exited with "
                      "status ${status}")
endif()

get_filename_component(name "${BENCH}" NAME_WE)
set(trace "${WORKDIR}/trace/${name}_trace.jsonl")
execute_process(
  COMMAND "${QUERY}" audit "${trace}" ${AUDIT_ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "trace_query audit ${trace} ${AUDIT_ARGS} exited with "
                      "status ${status}\n${out}${err}")
endif()

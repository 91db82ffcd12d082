# Runs one bench traced and audits its decision records: BENCH with the
# ;-separated BENCH_ARGS plus trace=trace inside WORKDIR, then
# `trace_query audit` over the JSONL it streams with the ;-separated
# AUDIT_ARGS (the --require-* assertions). Fails unless both exit 0.
#
# With EXPLAIN_ARGS given, `trace_query explain` with those arguments must
# exit 0 too, and the machine encodings must hold: the audit's `--csv`
# file is not empty, and `decisions --jsonl` writes the same bytes twice,
# every line a JSON object:
#
#   cmake -DBENCH=<ablation_faults> -DBENCH_ARGS=<a;b> -DQUERY=<trace_query> \
#         -DAUDIT_ARGS=<c;d> [-DEXPLAIN_ARGS=<e;f>] -DWORKDIR=<dir> \
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

# Runs trace_query with ARGN; fails unless it exits 0.
function(query)
  execute_process(
    COMMAND "${QUERY}" ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "trace_query ${ARGN} exited with status ${status}\n"
                        "${out}${err}")
  endif()
endfunction()

get_filename_component(name "${BENCH}" NAME_WE)
set(trace "${WORKDIR}/trace/${name}_trace.jsonl")
query(audit "${trace}" ${AUDIT_ARGS} "--csv=${WORKDIR}/audit.csv")
if(NOT DEFINED EXPLAIN_ARGS)
  return()
endif()
query(explain "${trace}" ${EXPLAIN_ARGS})
query(decisions "${trace}" "--jsonl=${WORKDIR}/decisions-a.jsonl"
      --require-rows=1)
query(decisions "${trace}" "--jsonl=${WORKDIR}/decisions-b.jsonl")
file(READ "${WORKDIR}/decisions-a.jsonl" first)
file(READ "${WORKDIR}/decisions-b.jsonl" second)
if(NOT first STREQUAL second)
  message(FATAL_ERROR "trace_query decisions --jsonl wrote different bytes "
                      "on two runs over ${trace}")
endif()
file(STRINGS "${WORKDIR}/decisions-a.jsonl" lines)
foreach(line ${lines})
  string(JSON type ERROR_VARIABLE error TYPE "${line}")
  if(error OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "trace_query decisions --jsonl wrote a line that is "
                        "no JSON object: ${line}")
  endif()
endforeach()
file(SIZE "${WORKDIR}/audit.csv" size)
if(size EQUAL 0)
  message(FATAL_ERROR "trace_query audit --csv wrote an empty file")
endif()

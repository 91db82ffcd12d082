# Runs the traced, faulted fig09 sweep once and compares what
# tools/trace_query answers about its trace with the checked-in goldens,
# byte for byte:
#
#   cmake -DBENCH=<fig09_strategies> -DQUERY=<trace_query> \
#         -DGOLDEN_DIR=<bench/golden/trace_query> -DWORKDIR=<dir> \
#         -P bench/golden/check_trace_query.cmake
#
# The run is `fig09_strategies threads=3 faults=1 trace=trace` at its
# default 909 PDUs, inside WORKDIR (created if missing). Its stdout lands
# in WORKDIR/stdout.txt and its trace under WORKDIR/trace, where the trace
# budget check reads them. The run must write its trace as JSONL only, and
# `trace_query perfetto` must render that JSONL to a non-empty
# WORKDIR/trace/fig09_strategies_trace.perfetto. The threshold, audit and
# explain answers come from sim-domain events and are pinned whole.
# Scope timings are wall clock, so only the src, name and count columns
# of `scopes` are pinned. A deliberate change is re-baselined by copying
# WORKDIR/<golden>.csv over the golden file.
foreach(var BENCH QUERY GOLDEN_DIR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_query.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}/trace")
file(MAKE_DIRECTORY "${WORKDIR}/trace")
execute_process(
  COMMAND "${BENCH}" threads=3 faults=1 trace=trace
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${WORKDIR}/stdout.txt"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()

set(trace "${WORKDIR}/trace/fig09_strategies_trace.jsonl")
set(perfetto "${WORKDIR}/trace/fig09_strategies_trace.perfetto")
if(EXISTS "${perfetto}")
  message(FATAL_ERROR "${BENCH} wrote ${perfetto}: a traced run writes JSONL "
                      "only")
endif()
execute_process(
  COMMAND "${QUERY}" perfetto "${trace}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "trace_query perfetto exited with status ${status}")
endif()
if(NOT EXISTS "${perfetto}")
  message(FATAL_ERROR "trace_query perfetto wrote no ${perfetto}")
endif()
file(SIZE "${perfetto}" perfetto_bytes)
if(perfetto_bytes EQUAL 0)
  message(FATAL_ERROR "trace_query perfetto wrote an empty ${perfetto}")
endif()

function(run_query golden command)
  execute_process(
    COMMAND "${QUERY}" ${command} "${trace}" ${ARGN}
            "--csv=${WORKDIR}/${golden}"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "trace_query ${command} ${ARGN} exited with status "
                        "${status}")
  endif()
endfunction()

run_query(threshold_degree_above_1.csv
  threshold --track=degree --threshold=1 --above)
run_query(threshold_cb_trip_margin_s_below_120.csv
  threshold --track=cb_trip_margin_s --threshold=120 --below)
run_query(threshold_ups_soc_below_0.9.csv
  threshold --track=ups_soc --threshold=0.9 --below)
run_query(audit.csv audit)
run_query(explain.csv explain)
run_query(scopes.csv scopes)

# Keep the deterministic columns of `scopes`: src, name, count.
file(STRINGS "${WORKDIR}/scopes.csv" rows)
set(counts "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "^[^,]*,[^,]*,[^,]*" kept "${row}")
  string(APPEND counts "${kept}\n")
endforeach()
file(WRITE "${WORKDIR}/scopes_counts.csv" "${counts}")

set(goldens
  threshold_degree_above_1.csv threshold_cb_trip_margin_s_below_120.csv
  threshold_ups_soc_below_0.9.csv audit.csv explain.csv scopes_counts.csv)
set(failed "")
foreach(golden IN LISTS goldens)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${GOLDEN_DIR}/${golden}" "${WORKDIR}/${golden}"
    RESULT_VARIABLE differs)
  if(differs)
    find_program(DIFF_PROGRAM diff)
    if(DIFF_PROGRAM)
      execute_process(COMMAND "${DIFF_PROGRAM}" -u
        "${GOLDEN_DIR}/${golden}" "${WORKDIR}/${golden}")
    endif()
    list(APPEND failed "${golden}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "trace_query output differs from the goldens in "
                      "${GOLDEN_DIR}: ${failed} (new output in ${WORKDIR})")
endif()

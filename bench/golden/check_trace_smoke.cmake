# Runs one faulted bench traced and profiled, and checks what its trace and
# perf record hold: BENCH with the ;-separated BENCH_ARGS plus trace=trace
# perf=perf inside WORKDIR, then
#
#   * the trace is JSONL only, and `trace_query perfetto` renders it to a
#     non-empty Perfetto file;
#   * `trace_query counters` lists every counter track in TRACKS;
#   * every event line carries a name; the trace holds controller `phase`
#     instants and wall-clock spans, and controller.step is never a span;
#   * the perf record's scopes hold controller.step, and one of its folded
#     stacks ends in `;controller.step`;
#   * with LANES given, exactly LANES lanes carry a ups_soc track, and every
#     ups_soc sample is above 0 (the minimum `counters` reads over all of
#     them);
#   * `trace_query audit` with AUDIT_ARGS, and `explain` with EXPLAIN_ARGS
#     when given, exit 0:
#
#   cmake -DBENCH=<bench> -DBENCH_ARGS=<a;b> -DQUERY=<trace_query> \
#         -DTRACKS=<t;u> -DAUDIT_ARGS=<c;d> [-DEXPLAIN_ARGS=<e;f>] \
#         [-DLANES=<n>] -DWORKDIR=<dir> \
#         -P bench/golden/check_trace_smoke.cmake
foreach(var BENCH BENCH_ARGS QUERY TRACKS AUDIT_ARGS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/trace" "${WORKDIR}/perf")
execute_process(
  COMMAND "${BENCH}" ${BENCH_ARGS} trace=trace perf=perf
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${WORKDIR}/stdout.txt"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${BENCH_ARGS} trace=trace perf=perf exited "
                      "with status ${status}")
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
set(perfetto "${WORKDIR}/trace/${name}_trace.perfetto")
foreach(other "${WORKDIR}/trace/${name}_trace.json" "${perfetto}")
  if(EXISTS "${other}")
    message(FATAL_ERROR "${BENCH} wrote ${other}: a traced run writes JSONL "
                        "only")
  endif()
endforeach()
query(perfetto "${trace}")
file(SIZE "${perfetto}" perfetto_bytes)
if(perfetto_bytes EQUAL 0)
  message(FATAL_ERROR "trace_query perfetto wrote an empty ${perfetto}")
endif()

# Counter tracks, one CSV row each: src,name,points,min,mean,max,last.
query(counters "${trace}" "--csv=${WORKDIR}/counters.csv")
file(STRINGS "${WORKDIR}/counters.csv" counters)
foreach(track IN LISTS TRACKS)
  set(rows "${counters}")
  list(FILTER rows INCLUDE REGEX "^[^,]*,${track},")
  if(NOT rows)
    message(FATAL_ERROR "${trace} has no ${track} counter track")
  endif()
endforeach()

# Plain instants and spans have no trace_query report: read the event
# lines. Each must carry a name, which trace_query does not require
# (file(STRINGS) escapes a line's own semicolons, so both counts are lines).
file(STRINGS "${trace}" events REGEX "^\\{\"t\":\"ev\",")
file(STRINGS "${trace}" named REGEX "^\\{\"t\":\"ev\",.*\"name\":\"")
list(LENGTH events event_count)
list(LENGTH named named_count)
if(event_count EQUAL 0 OR NOT named_count EQUAL event_count)
  message(FATAL_ERROR "${named_count} of the ${event_count} event lines in "
                      "${trace} carry a name")
endif()
set(phases "${events}")
list(FILTER phases INCLUDE REGEX "\"cat\":\"controller\",\"name\":\"phase\"")
set(spans "${events}")
list(FILTER spans INCLUDE REGEX "\"domain\":\"wall\",\"ph\":\"X\"")
set(step_spans "${spans}")
list(FILTER step_spans INCLUDE REGEX "\"name\":\"controller\\.step\"")
if(NOT phases)
  message(FATAL_ERROR "${trace} holds no controller phase instant")
endif()
if(NOT spans)
  message(FATAL_ERROR "${trace} holds no wall-clock span")
endif()
if(step_spans)
  message(FATAL_ERROR "${trace} records controller.step as wall spans")
endif()

# The perf record: controller.step among the scopes and at the end of a
# folded stack (scope paths are exact whenever the profiler is on).
file(READ "${WORKDIR}/perf/BENCH_${name}.json" record)
string(JSON ignored ERROR_VARIABLE error
       GET "${record}" scopes controller.step)
if(error)
  message(FATAL_ERROR "BENCH_${name}.json has no controller.step scope")
endif()
string(JSON count ERROR_VARIABLE error LENGTH "${record}" folded_stacks)
set(step_stack "")
if(NOT error AND count GREATER 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON stack MEMBER "${record}" folded_stacks ${i})
    if(stack MATCHES ";controller\\.step$")
      set(step_stack "${stack}")
    endif()
  endforeach()
endif()
if(NOT step_stack)
  message(FATAL_ERROR "BENCH_${name}.json has no folded stack ending in "
                      ";controller.step")
endif()

if(DEFINED LANES)
  # The minimum over every lane's samples is each lane's lower bound; with
  # every sample above 0, each lane's track is one window above 0.
  set(ups_row "${counters}")
  list(FILTER ups_row INCLUDE REGEX "^[^,]*,ups_soc,")
  set(ups "")
  if(ups_row MATCHES "^[^,]*,ups_soc,[^,]*,([^,]*),")
    set(ups "${CMAKE_MATCH_1}")
  endif()
  if(NOT ups GREATER 0)
    message(FATAL_ERROR "a ups_soc sample in ${trace} is not above 0 "
                        "(minimum ${ups})")
  endif()
  query(threshold "${trace}" --track=ups_soc --threshold=0 --above
        "--csv=${WORKDIR}/ups_soc_lanes.csv")
  file(STRINGS "${WORKDIR}/ups_soc_lanes.csv" windows)
  list(LENGTH windows lines)
  math(EXPR lanes "${lines} - 1")
  if(NOT lanes EQUAL LANES)
    message(FATAL_ERROR "ups_soc tracks on ${lanes} lanes of ${trace}, "
                        "expected ${LANES}")
  endif()
endif()

query(audit "${trace}" ${AUDIT_ARGS})
if(DEFINED EXPLAIN_ARGS)
  query(explain "${trace}" ${EXPLAIN_ARGS})
endif()

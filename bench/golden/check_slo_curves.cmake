# Runs fig12_slo_sprint with the ;-separated ARGS plus csv= inside WORKDIR
# and checks its two trade-off curves, the serving side of the sprint:
#
#  - p99 vs sprint budget: under the SLO strategy the p99 never rises with
#    the budget, over at least 4 budget points;
#  - admission vs sprinting: at every admission level the SLO strategy is
#    no worse than no-sprint on p99 and on drop %, and has a strictly
#    lower p99 at 2 levels or more (very generous admission saturates the
#    latency histogram's 1000 s cap for both strategies).
#
# With QUERY (trace_query) given, the run is traced too: its trace must
# carry the serving_p99_ms and serving_backlog counter tracks and render
# through `trace_query perfetto`, and no Chrome JSON trace may be written.
#
#   cmake -DBENCH=<fig12_slo_sprint> "-DARGS=<a;b>" [-DQUERY=<trace_query>] \
#         -DWORKDIR=<dir> -P bench/golden/check_slo_curves.cmake
foreach(var BENCH ARGS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_slo_curves.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(run_args ${ARGS} "csv=${WORKDIR}")
if(DEFINED QUERY)
  list(APPEND run_args "trace=${WORKDIR}")
endif()
execute_process(
  COMMAND "${BENCH}" ${run_args}
  OUTPUT_FILE "${WORKDIR}/stdout.txt"
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${run_args} exited with status ${status}\n"
                      "${err}")
endif()

# Reads the CSV WORKDIR/<name>: sets one list per column named in ARGN,
# holding that column's cells in row order.
function(read_columns name)
  file(STRINGS "${WORKDIR}/${name}" lines)
  list(POP_FRONT lines header)
  string(REPLACE "," ";" header "${header}")
  foreach(column ${ARGN})
    list(FIND header ${column} at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${name} has no ${column} column")
    endif()
    set(cells "")
    foreach(line ${lines})
      string(REPLACE "," ";" row "${line}")
      list(GET row ${at} cell)
      list(APPEND cells "${cell}")
    endforeach()
    set(${column} "${cells}" PARENT_SCOPE)
  endforeach()
endfunction()

# p99 vs budget: every pair of SLO rows, in whatever order they come.
# Comparisons read the cells as doubles, and one that does not parse (an
# empty or NaN cell) fails.
read_columns(fig12_slo_budget_rows.csv budget strategy p99_ms)
set(points "")
list(LENGTH strategy rows)
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
  list(GET strategy ${i} name)
  if(name STREQUAL "slo")
    list(APPEND points ${i})
  endif()
endforeach()
list(LENGTH points count)
if(count LESS 4)
  message(FATAL_ERROR "fig12_slo_budget_rows.csv: ${count} SLO budget "
                      "points, want at least 4")
endif()
foreach(i ${points})
  list(GET budget ${i} b0)
  list(GET p99_ms ${i} p0)
  foreach(j ${points})
    list(GET budget ${j} b1)
    list(GET p99_ms ${j} p1)
    if(b0 LESS b1)
      if(NOT p1 LESS_EQUAL p0)
        message(FATAL_ERROR "${ARGS}: the SLO p99 rose with the budget: "
                            "${b0}x ${p0} ms -> ${b1}x ${p1} ms")
      endif()
    endif()
  endforeach()
endforeach()

# Admission vs sprinting: the slo and nosprint rows of each level.
read_columns(fig12_admission_rows.csv admit strategy p99_ms drop_pct)
list(LENGTH strategy rows)
math(EXPR last "${rows} - 1")
set(levels ${admit})
list(REMOVE_DUPLICATES levels)
set(wins 0)
foreach(level ${levels})
  foreach(name slo nosprint)
    unset(${name}_row)
    foreach(i RANGE ${last})
      list(GET admit ${i} a)
      list(GET strategy ${i} s)
      if(a STREQUAL level AND s STREQUAL name)
        set(${name}_row ${i})
      endif()
    endforeach()
    if(NOT DEFINED ${name}_row)
      message(FATAL_ERROR "fig12_admission_rows.csv: no ${name} row at "
                          "admit ${level}")
    endif()
  endforeach()
  list(GET p99_ms ${slo_row} slo_p99)
  list(GET p99_ms ${nosprint_row} nosprint_p99)
  list(GET drop_pct ${slo_row} slo_drop)
  list(GET drop_pct ${nosprint_row} nosprint_drop)
  if(NOT slo_p99 LESS_EQUAL nosprint_p99 OR
     NOT slo_drop LESS_EQUAL nosprint_drop)
    message(FATAL_ERROR "${ARGS}: at admit ${level} SLO sprinting is worse "
                        "than no-sprint: p99 ${slo_p99} vs ${nosprint_p99} ms,"
                        " drop ${slo_drop} vs ${nosprint_drop} %")
  endif()
  if(slo_p99 LESS nosprint_p99)
    math(EXPR wins "${wins} + 1")
  endif()
endforeach()
if(wins LESS 2)
  message(FATAL_ERROR "${ARGS}: SLO sprinting has a lower p99 than "
                      "no-sprint at ${wins} admission level(s), want 2")
endif()

if(NOT DEFINED QUERY)
  return()
endif()
get_filename_component(name "${BENCH}" NAME_WE)
set(trace "${WORKDIR}/${name}_trace.jsonl")
execute_process(
  COMMAND "${QUERY}" counters "${trace}" --csv
  OUTPUT_VARIABLE counters
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "trace_query counters ${trace} exited with status "
                      "${status}\n${err}")
endif()
foreach(track serving_p99_ms serving_backlog)
  if(NOT counters MATCHES "(^|\n)[^,\n]*,${track},")
    message(FATAL_ERROR "${trace} has no ${track} counter track")
  endif()
endforeach()
execute_process(
  COMMAND "${QUERY}" perfetto "${trace}"
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "trace_query perfetto ${trace} exited with status "
                      "${status}\n${err}")
endif()
set(perfetto "${WORKDIR}/${name}_trace.perfetto")
if(EXISTS "${perfetto}")
  file(SIZE "${perfetto}" size)
endif()
if(NOT size GREATER 0)
  message(FATAL_ERROR "trace_query perfetto wrote no ${perfetto}")
endif()
if(EXISTS "${WORKDIR}/${name}_trace.json")
  message(FATAL_ERROR "${BENCH} wrote a Chrome JSON trace next to its JSONL")
endif()

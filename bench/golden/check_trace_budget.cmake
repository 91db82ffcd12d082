# Holds the traced fig09 run of check_trace_query.cmake to a fixed cost:
# at most MAX_EVENTS trace events, and at most MAX_BYTES in its JSONL
# trace, the one file a traced run writes. Both are counts, not timings,
# so the check fails on a regression however noisy the host is:
#
#   cmake -DWORKDIR=<dir> -DMAX_EVENTS=<n> -DMAX_BYTES=<n> \
#         -P bench/golden/check_trace_budget.cmake
#
# WORKDIR is the golden check's work dir, which holds the run's stdout
# (the "[obs] streamed <n> events to <file>" lines) and its trace files.
foreach(var WORKDIR MAX_EVENTS MAX_BYTES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_budget.cmake needs -D${var}=...")
  endif()
endforeach()

file(READ "${WORKDIR}/stdout.txt" stdout)
string(REGEX MATCH "streamed ([0-9]+) events to [^\n]*_trace\\.jsonl"
       matched "${stdout}")
if(NOT matched)
  message(FATAL_ERROR "no '[obs] streamed <n> events' line for the JSONL "
                      "trace in ${WORKDIR}/stdout.txt")
endif()
set(events "${CMAKE_MATCH_1}")

set(path "${WORKDIR}/trace/fig09_strategies_trace.jsonl")
if(NOT EXISTS "${path}")
  message(FATAL_ERROR "missing trace file ${path}")
endif()
file(SIZE "${path}" bytes)

message(STATUS "traced fig09: ${events} events, ${bytes} bytes "
               "(budget ${MAX_EVENTS} events, ${MAX_BYTES} bytes)")
if(events GREATER MAX_EVENTS)
  message(FATAL_ERROR "traced fig09 wrote ${events} events, over the "
                      "budget of ${MAX_EVENTS}")
endif()
if(bytes GREATER MAX_BYTES)
  message(FATAL_ERROR "traced fig09 wrote ${bytes} bytes of JSONL, over "
                      "the budget of ${MAX_BYTES}")
endif()

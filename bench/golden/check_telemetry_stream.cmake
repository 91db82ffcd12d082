# Runs one bench with telemetry= and checks the stream it leaves: a header
# first, then at least one SPAN wall span (default `exp.task`) and one
# folded-stack line. A bench that traces no sim events still streams its
# profile:
#
#   cmake -DBENCH=<fig10_burst_sweep> -DWORKDIR=<dir> [-DSPAN=<name>] \
#         -P bench/golden/check_telemetry_stream.cmake
#
# The run is `<bench> threads=1 pdus=2 telemetry=WORKDIR/telemetry.jsonl`.
foreach(var BENCH WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_telemetry_stream.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED SPAN)
  set(SPAN "exp.task")
endif()
string(REPLACE "." "\\." span_pattern "${SPAN}")

set(stream "${WORKDIR}/telemetry.jsonl")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${BENCH}" threads=1 pdus=2 "telemetry=${stream}"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${WORKDIR}/stdout.txt"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
if(NOT EXISTS "${stream}")
  message(FATAL_ERROR "${BENCH} wrote no telemetry stream at ${stream}")
endif()

file(STRINGS "${stream}" lines)
list(LENGTH lines count)
list(GET lines 0 first)
if(NOT first MATCHES "^{\"t\":\"header\",\"telemetry\":1,")
  message(FATAL_ERROR "first line of ${stream} is not a header: ${first}")
endif()
set(spans 0)
set(stacks 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^{\"t\":\"ev\",\"domain\":\"wall\",\"ph\":\"X\"" AND
     line MATCHES "\"name\":\"${span_pattern}\"")
    math(EXPR spans "${spans} + 1")
  elseif(line MATCHES "^{\"t\":\"stack\",")
    math(EXPR stacks "${stacks} + 1")
  endif()
endforeach()
message(STATUS "${stream}: ${count} lines, ${spans} ${SPAN} spans, "
               "${stacks} stacks")
if(spans EQUAL 0)
  message(FATAL_ERROR "${stream} holds no ${SPAN} wall span")
endif()
if(stacks EQUAL 0)
  message(FATAL_ERROR "${stream} holds no stack line")
endif()

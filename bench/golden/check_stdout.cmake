# Runs one bench or example binary at its defaults and compares its stdout
# with the checked-in golden file, byte for byte:
#
#   cmake -DBINARY=<exe> -DGOLDEN=<golden.txt> -DWORKDIR=<dir> \
#         -P bench/golden/check_stdout.cmake
#
# The binary runs inside WORKDIR (created if missing), because some write
# files to their working directory (replay_trace's sample CSV). A deliberate
# change to what a binary prints is re-baselined by copying
# WORKDIR/stdout.txt over the golden file, so the change shows as a golden
# diff in the commit that causes it.
foreach(var BINARY GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(actual "${WORKDIR}/stdout.txt")
execute_process(COMMAND "${BINARY}"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${actual}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${GOLDEN}" "${actual}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${actual}")
  endif()
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN} "
                      "(new output in ${actual})")
endif()

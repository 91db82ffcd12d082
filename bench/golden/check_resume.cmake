# Resumes a sweep bench from checkpoints cut short and checks that it
# carries on exactly where they end. Runs BENCH with ARGS once with csv=
# and no checkpoint, then once with checkpoint=; cuts every
# <sweep>.ckpt.jsonl down to its header, its first KEEP rows and the first
# half of the next row (the torn line a kill mid-append leaves); resumes
# with checkpoint= csv= perf=, then resumes those checkpoints once more.
# Fails unless, after each resume, every CSV in CSVS and the stdout tables
# are byte-identical to the uncheckpointed run's, and unless every sweep's
# perf record counts as many executed_tasks as rows were cut from its
# checkpoint (the torn row included) on the first resume and none on the
# second:
#
#   cmake -DBENCH=<bench> "-DARGS=<a;b>" -DKEEP=<k> "-DCSVS=<x.csv;...>" \
#         -DWORKDIR=<dir> -P bench/golden/check_resume.cmake
cmake_policy(SET CMP0054 NEW)  # "cut" below is a word, not a variable
foreach(var BENCH ARGS KEEP CSVS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_resume.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/clean" "${WORKDIR}/ckpt")

# Runs the bench with ARGS plus ARGN; its stdout tables (the lines that do
# not start with "[", which name files and timings) land in `out_var`.
function(run_bench out_var)
  execute_process(
    COMMAND "${BENCH}" ${ARGS} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} ${ARGN} exited with ${status}\n"
                        "${out}${err}")
  endif()
  string(REGEX REPLACE "(^|\n)\\[[^\n]*" "" tables "${out}")
  set(${out_var} "${tables}" PARENT_SCOPE)
endfunction()

run_bench(clean_tables "csv=${WORKDIR}/clean")
run_bench(unused "checkpoint=${WORKDIR}/ckpt")

file(GLOB checkpoints "${WORKDIR}/ckpt/*.ckpt.jsonl")
if(NOT checkpoints)
  message(FATAL_ERROR "${BENCH} wrote no checkpoint under ${WORKDIR}/ckpt")
endif()
set(sweeps "")
foreach(checkpoint ${checkpoints})
  file(READ "${checkpoint}" rest)
  set(kept "")
  math(EXPR keep_lines "${KEEP} + 1")
  foreach(i RANGE 1 ${keep_lines})
    string(FIND "${rest}" "\n" newline)
    if(newline EQUAL -1)
      message(FATAL_ERROR "${checkpoint} holds fewer than ${KEEP} rows")
    endif()
    math(EXPR length "${newline} + 1")
    string(SUBSTRING "${rest}" 0 ${length} line)
    string(APPEND kept "${line}")
    string(SUBSTRING "${rest}" ${length} -1 rest)
  endforeach()
  string(REGEX MATCHALL "\n" cut_rows "${rest}")
  list(LENGTH cut_rows cut)
  if(cut EQUAL 0)
    message(FATAL_ERROR "${checkpoint} holds no row past the first ${KEEP}")
  endif()
  string(FIND "${rest}" "\n" newline)
  math(EXPR half "${newline} / 2")
  string(SUBSTRING "${rest}" 0 ${half} torn)
  file(WRITE "${checkpoint}" "${kept}${torn}")
  get_filename_component(name "${checkpoint}" NAME)
  string(REPLACE ".ckpt.jsonl" "" sweep "${name}")
  set(cut_${sweep} ${cut})
  list(APPEND sweeps ${sweep})
endforeach()

# Resumes from the checkpoints into WORKDIR/<run>; every sweep's perf
# record must count `executed` executed_tasks, or the rows cut from its
# checkpoint when `executed` is "cut".
function(resume run executed)
  file(MAKE_DIRECTORY "${WORKDIR}/${run}/perf")
  run_bench(tables "checkpoint=${WORKDIR}/ckpt" "csv=${WORKDIR}/${run}"
            "perf=${WORKDIR}/${run}/perf")
  foreach(csv ${CSVS})
    file(READ "${WORKDIR}/clean/${csv}" want)
    file(READ "${WORKDIR}/${run}/${csv}" got)
    if(NOT got STREQUAL want)
      message(FATAL_ERROR "${run} ${csv} differs from the uncheckpointed "
                          "run's (see ${WORKDIR}/clean and ${WORKDIR}/${run})")
    endif()
  endforeach()
  if(NOT tables STREQUAL clean_tables)
    message(FATAL_ERROR "the ${run} run's tables differ from the "
                        "uncheckpointed run's:\n${tables}")
  endif()

  set(records 0)
  foreach(sweep ${sweeps})
    set(record "${WORKDIR}/${run}/perf/BENCH_${sweep}.json")
    if(NOT EXISTS "${record}")
      continue()  # a sweep that only prints its table writes no perf record
    endif()
    set(want ${executed})
    if(want STREQUAL "cut")
      set(want ${cut_${sweep}})
    endif()
    file(READ "${record}" json)
    string(JSON got GET "${json}" executed_tasks)
    if(NOT got EQUAL want)
      message(FATAL_ERROR "${sweep}: the ${run} run executed ${got} tasks, "
                          "expected ${want} (${cut_${sweep}} rows were cut "
                          "from its checkpoint)")
    endif()
    math(EXPR records "${records} + 1")
  endforeach()
  if(records EQUAL 0)
    message(FATAL_ERROR "the ${run} run wrote no perf record under "
                        "${WORKDIR}/${run}/perf")
  endif()
endfunction()

# The first resume runs the rows that were cut; its writer cuts each torn
# line before appending, so the second replays every row and runs none.
resume(resumed cut)
resume(replayed 0)

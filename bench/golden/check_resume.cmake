# Resumes a sweep bench from checkpoints cut short and checks that it
# carries on exactly where they end. Runs BENCH with ARGS once with csv=
# and no checkpoint, then once with checkpoint=; cuts every
# <sweep>.ckpt.jsonl down to its header, its first KEEP rows and the first
# half of the next row (the torn line a kill mid-append leaves); resumes
# with checkpoint= csv= perf=. Fails unless every CSV in CSVS and the
# stdout tables are byte-identical to the uncheckpointed run's, and every
# sweep's perf record counts as many executed_tasks as rows were cut from
# its checkpoint (the torn row included):
#
#   cmake -DBENCH=<bench> "-DARGS=<a;b>" -DKEEP=<k> "-DCSVS=<x.csv;...>" \
#         -DWORKDIR=<dir> -P bench/golden/check_resume.cmake
foreach(var BENCH ARGS KEEP CSVS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_resume.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/clean" "${WORKDIR}/ckpt" "${WORKDIR}/resumed"
     "${WORKDIR}/perf")

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

run_bench(resumed_tables "checkpoint=${WORKDIR}/ckpt"
          "csv=${WORKDIR}/resumed" "perf=${WORKDIR}/perf")

foreach(csv ${CSVS})
  file(READ "${WORKDIR}/clean/${csv}" want)
  file(READ "${WORKDIR}/resumed/${csv}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "resumed ${csv} differs from the uncheckpointed run "
                        "(see ${WORKDIR}/clean and ${WORKDIR}/resumed)")
  endif()
endforeach()
if(NOT resumed_tables STREQUAL clean_tables)
  message(FATAL_ERROR "the resumed run's tables differ from the "
                      "uncheckpointed run's:\n${resumed_tables}")
endif()

set(records 0)
foreach(sweep ${sweeps})
  set(record "${WORKDIR}/perf/BENCH_${sweep}.json")
  if(NOT EXISTS "${record}")
    continue()  # a sweep that only prints its table writes no perf record
  endif()
  file(READ "${record}" json)
  string(JSON executed GET "${json}" executed_tasks)
  if(NOT executed EQUAL cut_${sweep})
    message(FATAL_ERROR "${sweep}: the resume executed ${executed} tasks, "
                        "but ${cut_${sweep}} rows were cut from its checkpoint")
  endif()
  math(EXPR records "${records} + 1")
endforeach()
if(records EQUAL 0)
  message(FATAL_ERROR "the resumed run wrote no perf record under "
                      "${WORKDIR}/perf")
endif()

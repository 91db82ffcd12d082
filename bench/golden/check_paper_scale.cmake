# The plant is one weighted PDU group (core/datacenter.h), so the paper's
# 909-PDU facility runs what a 2-PDU one does, and every *_rows.csv a sweep
# bench writes at pdus=909 must equal its pdus=2 twin cell for cell: as a
# number where the pdus=2 cell is one (a NaN equals nothing), as text
# where it is a whole number (a double would round a 19-digit seed) or no
# number. Runs BENCH with the ;-separated ARGS at both counts, each with
# csv= under WORKDIR, and requires FILES rows files from each:
#
#   cmake -DBENCH=<bench> -DARGS=<a;b> -DFILES=<n> -DWORKDIR=<dir> \
#         -P bench/golden/check_paper_scale.cmake
foreach(var BENCH ARGS FILES WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_paper_scale.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
foreach(pdus 2 909)
  file(MAKE_DIRECTORY "${WORKDIR}/pdus${pdus}")
  execute_process(
    COMMAND "${BENCH}" ${ARGS} pdus=${pdus} csv=${WORKDIR}/pdus${pdus}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} pdus=${pdus} exited with status "
                        "${status}\n${err}")
  endif()
  file(GLOB files${pdus} RELATIVE "${WORKDIR}/pdus${pdus}"
       "${WORKDIR}/pdus${pdus}/*_rows.csv")
  list(SORT files${pdus})
endforeach()
list(LENGTH files2 count)
if(NOT count EQUAL FILES OR NOT files2 STREQUAL files909)
  message(FATAL_ERROR "expected ${FILES} rows files at each count; pdus=2 "
                      "wrote '${files2}', pdus=909 '${files909}'")
endif()

set(number "^[-+]?([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][-+]?[0-9]+)?$")
set(special "^[-+]?([iI][nN][fF]|[nN][aA][nN])$")
foreach(name IN LISTS files2)
  file(STRINGS "${WORKDIR}/pdus2/${name}" small)
  file(STRINGS "${WORKDIR}/pdus909/${name}" paper)
  list(LENGTH small lines)
  list(LENGTH paper paper_lines)
  if(lines LESS 2 OR NOT lines EQUAL paper_lines)
    message(FATAL_ERROR "${name}: ${lines} lines at pdus=2, ${paper_lines} "
                        "at pdus=909")
  endif()
  list(GET small 0 header)
  list(GET paper 0 paper_header)
  if(NOT header STREQUAL paper_header)
    message(FATAL_ERROR "${name}: header differs: '${header}' at pdus=2, "
                        "'${paper_header}' at pdus=909")
  endif()
  string(REPLACE "," ";" columns "${header}")
  list(LENGTH columns width)
  math(EXPR last_line "${lines} - 1")
  math(EXPR last_column "${width} - 1")
  foreach(row RANGE 1 ${last_line})
    list(GET small ${row} line)
    list(GET paper ${row} paper_line)
    string(REPLACE "," ";" cells "${line}")
    string(REPLACE "," ";" paper_cells "${paper_line}")
    list(LENGTH cells cell_count)
    list(LENGTH paper_cells paper_cell_count)
    if(NOT cell_count EQUAL width OR NOT paper_cell_count EQUAL width)
      message(FATAL_ERROR "${name} row ${row}: ${cell_count} cells at "
                          "pdus=2, ${paper_cell_count} at pdus=909, "
                          "${width} columns")
    endif()
    foreach(column RANGE ${last_column})
      list(GET cells ${column} x)
      list(GET paper_cells ${column} y)
      if(x MATCHES "^[-+]?[0-9]+$")
        if(x STREQUAL y)
          continue()
        endif()
      elseif(x MATCHES "${number}" OR x MATCHES "${special}")
        # EQUAL compares as doubles, and it also reads a number off the
        # front of a longer text, so the pdus=909 cell must be a number.
        if(y MATCHES "${number}" OR y MATCHES "${special}")
          if(x EQUAL y)
            continue()
          endif()
        endif()
      elseif(x STREQUAL y)
        continue()
      endif()
      list(GET columns ${column} column_name)
      message(FATAL_ERROR "${name} row ${row} ${column_name}: pdus=2 '${x}' "
                          "vs pdus=909 '${y}'")
    endforeach()
  endforeach()
  message(STATUS "${name}: ${last_line} rows equal at pdus=2 and 909")
endforeach()

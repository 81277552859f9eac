# Runs one bench, then diffs each CSV it wrote against data/expected/ and
# loads each run report and trace it wrote with Python's json module.
#
#   cmake -DBENCH=<binary> -DCSVS=<a.csv,b.csv> -DEXPECTED=<dir>
#         -DPYTHON=<python3> -DCOMPARE=<scripts/compare_reports.py>
#         -P check_golden.cmake
#
# The bench writes into $ENV{SELECT_RESULTS_DIR}. The CSVs, reports and
# traces are deleted there first, so that one left by an earlier run can
# never pass for this one.
set(results "$ENV{SELECT_RESULTS_DIR}")
if(NOT results)
  message(FATAL_ERROR "SELECT_RESULTS_DIR is not set")
endif()
string(REPLACE "," ";" csvs "${CSVS}")
foreach(csv IN LISTS csvs)
  file(REMOVE "${results}/${csv}")
endforeach()
file(GLOB stale "${results}/*.report.json" "${results}/*.trace.json")
if(stale)
  file(REMOVE ${stale})
endif()

execute_process(COMMAND "${BENCH}" RESULT_VARIABLE status
  OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}:\n${output}")
endif()

set(failed "")
foreach(csv IN LISTS csvs)
  execute_process(
    COMMAND "${PYTHON}" "${COMPARE}" "${EXPECTED}/${csv}" "${results}/${csv}"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(APPEND failed ${csv})
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "differs from data/expected/: ${failed}")
endif()

# Python is what reads these documents (compare_reports.py,
# trace_report.py), so it is what checks that they parse. NaN and Infinity
# are refused, as Perfetto refuses them.
file(GLOB reports "${results}/*.report.json")
if(NOT reports)
  message(FATAL_ERROR "${BENCH} wrote no *.report.json into ${results}")
endif()
file(GLOB traces "${results}/*.trace.json")
set(loader "import json, sys
def refuse(token):
    raise ValueError('not JSON: ' + token)
with open(sys.argv[1], encoding='utf-8') as f:
    json.load(f, parse_constant=refuse)")
foreach(doc IN LISTS reports traces)
  execute_process(
    COMMAND "${PYTHON}" -c "${loader}" "${doc}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${doc} is not valid JSON:\n${output}")
  endif()
endforeach()

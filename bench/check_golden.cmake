# Runs one bench, then diffs each CSV it wrote against data/expected/.
#
#   cmake -DBENCH=<binary> -DCSVS=<a.csv,b.csv> -DEXPECTED=<dir>
#         -DPYTHON=<python3> -DCOMPARE=<scripts/compare_reports.py>
#         -P check_golden.cmake
#
# The bench writes into $ENV{SELECT_RESULTS_DIR}. The CSVs are deleted
# there first, so that one left by an earlier run can never pass for this
# one.
set(results "$ENV{SELECT_RESULTS_DIR}")
if(NOT results)
  message(FATAL_ERROR "SELECT_RESULTS_DIR is not set")
endif()
string(REPLACE "," ";" csvs "${CSVS}")
foreach(csv IN LISTS csvs)
  file(REMOVE "${results}/${csv}")
endforeach()

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

# Budget regression test for the stap CLI: writes `stap family FAMILY N`
# to a file, runs `stap --budget-ms=BUDGET_MS COMMAND <file>` on it, and
# requires exit code 3 with RESOURCE_EXHAUSTED on stderr.
#
#   cmake -DSTAP=<stap binary> -DWORK=<scratch dir> -DFAMILY=theorem32
#         -DN=8 -DBUDGET_MS=300 -DCOMMAND=check -P tests/cli/exhausted.cmake
cmake_minimum_required(VERSION 3.16)

foreach(var STAP WORK FAMILY N BUDGET_MS COMMAND)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "exhausted.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK}")
set(schema "${WORK}/${FAMILY}_${N}.stap")
execute_process(COMMAND "${STAP}" family ${FAMILY} ${N}
                OUTPUT_FILE "${schema}" RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "stap family ${FAMILY} ${N} exited ${code}")
endif()

execute_process(COMMAND "${STAP}" --budget-ms=${BUDGET_MS} ${COMMAND}
                        "${schema}"
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code STREQUAL "3" OR NOT err MATCHES "RESOURCE_EXHAUSTED")
  message(FATAL_ERROR
          "stap --budget-ms=${BUDGET_MS} ${COMMAND} <${FAMILY} ${N}>: "
          "expected exit 3 and RESOURCE_EXHAUSTED, got exit ${code}, "
          "stderr: ${err}")
endif()

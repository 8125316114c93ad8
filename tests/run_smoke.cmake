# Runs one bench/example driver cold: BIN in a fresh working directory DIR.
# The smoke's ctest ENVIRONMENT points SAFELIGHT_ZOO and SAFELIGHT_OUT
# inside DIR; the test fails unless BIN exits 0.
#   cmake -DBIN=<executable> -DDIR=<scratch dir> -P run_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BIN}" WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}")
endif()

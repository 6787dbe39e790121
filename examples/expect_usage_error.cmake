# Runs EXE with ARGS ("|"-separated) and fails unless it exits with status 2
# and prints a usage line to stderr.  Used by the example argument tests in
# CMakeLists.txt:
#
#   cmake -DEXE=<program> -DARGS=<a|b|...> -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${EXE} ${args}: exit status '${rc}', expected 2 "
                      "with a usage line\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "exit status 2 as expected; stderr:\n${err}")

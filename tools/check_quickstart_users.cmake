# A malformed user count must stop quickstart before any trial runs: for each
# argument below it must print its usage line on stderr, nothing on stdout,
# and exit with code 2. "abc" goes first, so a quickstart that skips the
# check fails here on a 0-user trial before "-5" could ask it for a
# wrapped-around farm. Runs as the quickstart_rejects_bad_users CTest.
#
# Usage: cmake -DQUICKSTART=<binary> -P tools/check_quickstart_users.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED QUICKSTART)
  message(FATAL_ERROR "pass -DQUICKSTART=<quickstart binary>")
endif()

foreach(arg "abc" "-5" "12x" "" "0")
  execute_process(COMMAND "${QUICKSTART}" "${arg}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "quickstart '${arg}' exited with '${rc}', expected 2")
  endif()
  if(NOT err MATCHES "usage: quickstart")
    message(FATAL_ERROR "quickstart '${arg}' printed no usage line: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "quickstart '${arg}' started a trial: ${out}")
  endif()
endforeach()

# Runs the command given after `--` and passes only when it exits non-zero
# and its stderr matches EXPECT (a regular expression).
#
#   cmake -DEXPECT=<regex> -P expect_refusal.cmake -- <program> [args...]
set(_command)
set(_after_separator FALSE)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE ${_last})
  if(_after_separator)
    list(APPEND _command "${CMAKE_ARGV${_i}}")
  elseif("${CMAKE_ARGV${_i}}" STREQUAL "--")
    set(_after_separator TRUE)
  endif()
endforeach()
if(NOT _command)
  message(FATAL_ERROR "expect_refusal.cmake: no command after --")
endif()
execute_process(COMMAND ${_command}
                RESULT_VARIABLE _result
                OUTPUT_VARIABLE _stdout
                ERROR_VARIABLE _stderr)
if("${_result}" STREQUAL "0")
  message(FATAL_ERROR "exited 0; expected a refusal matching '${EXPECT}'\n"
                      "stdout:\n${_stdout}\nstderr:\n${_stderr}")
endif()
if(NOT _stderr MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit '${_result}' without a message matching "
                      "'${EXPECT}'\nstderr:\n${_stderr}")
endif()

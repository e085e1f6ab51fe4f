# Runs EXE with the space-separated ARGS and fails unless it exits with
# EXIT_CODE and its stderr matches STDERR_REGEX. Used by ctest:
#   cmake -DEXE=<exe> "-DARGS=<args>" -DEXIT_CODE=<n> "-DSTDERR_REGEX=<re>"
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit status '${code}', expected ${EXIT_CODE}; "
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()

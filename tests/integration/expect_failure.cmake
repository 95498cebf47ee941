# Runs BIN with the space-separated ARGS and fails unless it exits 2 (the
# exit code kdc::cli_main gives a cli_error) and its stderr matches the
# regular expression EXPECT.
#
#   cmake -DBIN=<path> -DARGS="<args>" -DEXPECT=<regex> -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 2)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${result}, not 2:\n"
                        "${err}")
endif()
if(NOT "${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "${BIN} ${ARGS} printed no match for '${EXPECT}' "
                        "on stderr:\n${err}")
endif()

# Runs BIN with the space-separated ARGS and fails unless it exits 0 and
# its combined stdout and stderr match the regular expression EXPECT.
#
#   cmake -DBIN=<path> -DARGS="<args>" -DEXPECT=<regex> -P expect_success.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${result}:\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "${BIN} ${ARGS} printed no match for '${EXPECT}':\n"
                        "${err}")
endif()

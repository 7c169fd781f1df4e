# Run one figure binary and compare its stdout with a frozen golden.
#
#   cmake -DBIN=<executable> -DGOLDEN=<file> -P compare_stdout.cmake
#
# Fails when the binary exits nonzero or prints anything other than the
# golden, byte for byte. On a mismatch the actual output is written next
# to the working directory as <name>.actual.txt for diffing.

execute_process(COMMAND ${BIN}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME_WE)
    file(WRITE ${name}.actual.txt "${actual}")
    message(FATAL_ERROR
        "stdout differs from ${GOLDEN}; actual output written to "
        "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
endif()

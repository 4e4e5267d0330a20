# Regression test of f3d_trace's JSON nesting bound: 200,000 nested '['
# must be reported as a parse error (exit 2), not overflow the stack.
# Run as: cmake -DF3D_TRACE=<f3d_trace> -DWORK_DIR=<dir> -P deep_nesting_test.cmake

string(REPEAT "[" 200000 text)
set(input "${WORK_DIR}/deep_nesting.json")
file(WRITE "${input}" "${text}")
execute_process(COMMAND "${F3D_TRACE}" "${input}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
file(REMOVE "${input}")
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "f3d_trace on 200000 nested '[' exited '${rc}', want 2\n${err}")
endif()
if(NOT err MATCHES "JSON parse error: nesting too deep")
    message(FATAL_ERROR "f3d_trace reported the wrong error: ${err}")
endif()

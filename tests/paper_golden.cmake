# Run one paper-table program and diff its stdout byte for byte against the
# recorded table. On a mismatch the actual output is left at ACTUAL so a
# deliberate change can be re-recorded by copying it over GOLDEN.
#
#   cmake -DPROG=<exe> -DGOLDEN=<tests/golden/paper/x.txt> -DACTUAL=<out.txt>
#         -P tests/paper_golden.cmake
execute_process(COMMAND "${PROG}" OUTPUT_VARIABLE got RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROG} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
    file(WRITE "${ACTUAL}" "${got}")
    message(FATAL_ERROR "stdout of ${PROG} drifted from ${GOLDEN}; actual output left at "
                        "${ACTUAL} (copy it over the golden if the change is intended, and "
                        "name the delta in CHANGES.md)")
endif()

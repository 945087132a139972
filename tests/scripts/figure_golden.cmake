# Rerun one paper-figure bench at --quick and byte-compare its CSV table
# with the committed golden (tests/data/figures/). Invoked by CTest:
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.csv> -DOUT=<scratch.csv>
#         -P tests/scripts/figure_golden.cmake
# A mismatch means a paper-facing number moved; regenerate the golden only
# as a reviewed change (tests/data/README.md).
execute_process(COMMAND ${BENCH} --quick --csv=${OUT}
                RESULT_VARIABLE bench_rc OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick exited with ${bench_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  file(READ ${OUT} produced)
  file(READ ${GOLDEN} expected)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}\n"
                      "--- produced\n${produced}--- golden\n${expected}")
endif()

# Runs the sweep-smoke 12-point grid (vaults x size x mix, as in CI) at
# --jobs 1 and --jobs 2 and compares each JSONL byte for byte with the
# golden file. Any drift in simulated results, config digests, derived
# seeds or JSONL formatting shows up here.
#
#   cmake -DCLI=<hmcsim_cli> -DGOLDEN=<sweep_12pt.jsonl>
#         -DOUT=<scratch prefix> -P check_sweep_grid.cmake
foreach(jobs 1 2)
    set(out ${OUT}.jobs${jobs}.jsonl)
    execute_process(
        COMMAND ${CLI} sweep --jobs ${jobs}
            --axis vaults=16,4,1 --axis size=128,32 --axis mix=ro,rw
            --measure-us 50 --out ${out}
        RESULT_VARIABLE sweep_rc
        OUTPUT_QUIET)
    if(NOT sweep_rc EQUAL 0)
        message(FATAL_ERROR "hmcsim_cli sweep --jobs ${jobs} exited with ${sweep_rc}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${out}
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR "${out} differs from ${GOLDEN}")
    endif()
endforeach()

# Runs `hmcsim_cli --selfcheck` and requires both the determinism
# verdict and the reference stat digest (docs/correctness.md): two
# runs that agree with each other but not with this value mean the
# simulated results changed.
#
#   cmake -DCLI=<hmcsim_cli> -DDIGEST=<16 hex digits>
#         -P check_selfcheck.cmake
execute_process(
    COMMAND ${CLI} --selfcheck
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hmcsim_cli --selfcheck exited with ${rc}:\n${out}")
endif()
string(FIND "${out}" "digests ${DIGEST} / ${DIGEST}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "selfcheck digest is not ${DIGEST}:\n${out}")
endif()

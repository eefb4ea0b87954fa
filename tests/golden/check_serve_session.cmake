# Replays the scripted serve session and compares the streamed JSONL
# byte for byte with the golden transcript (docs/service.md). Any drift
# in config digests, derived seeds or JSONL formatting shows up here.
#
#   cmake -DCLI=<hmcsim_cli> -DSESSION=<serve_session.txt>
#         -DGOLDEN=<serve_session.jsonl> -DOUT=<scratch.jsonl>
#         -P check_serve_session.cmake
execute_process(
    COMMAND ${CLI} serve --in ${SESSION} --out ${OUT}
    RESULT_VARIABLE serve_rc
    OUTPUT_QUIET)
if(NOT serve_rc EQUAL 0)
    message(FATAL_ERROR "hmcsim_cli serve exited with ${serve_rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()

# Runs a small breakdown sweep with both --stream-obs and --perfetto and
# passes only if it exits 0 and the trace holds the last point's spans: a
# "PE 0" process track and an early-wait interval. Used by the
# gpucomm_sweep Perfetto tests:
#   cmake -DEXE=gpucomm_sweep -DOUT=/tmp/trace -P expect_perfetto.cmake
file(REMOVE ${OUT}.json ${OUT}.jsonl)
execute_process(COMMAND ${EXE} --metric breakdown --stack charm --place inter
                        --iters 5 --warmup 1 --sizes 65536
                        --stream-obs ${OUT}.jsonl --perfetto ${OUT}.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "breakdown: expected exit code 0, got '${rc}'\n${err}")
endif()
file(READ ${OUT}.json trace)
foreach(needle "\"PE 0\"" "early-wait")
  string(FIND "${trace}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${needle} missing from ${OUT}.json:\n${trace}")
  endif()
endforeach()

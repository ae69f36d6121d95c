# Runs `EXE --metric METRIC OPT VAL` and passes only if it exits with code 2
# and prints the usage message on stderr. Used by the gpucomm_sweep
# argument-rejection tests:
#   cmake -DEXE=gpucomm_sweep -DMETRIC=latency -DOPT=--sizes -DVAL=4k -P expect_usage.cmake
execute_process(COMMAND ${EXE} --metric ${METRIC} ${OPT} ${VAL}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${OPT} ${VAL}: expected exit code 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${OPT} ${VAL}: usage message missing from stderr:\n${err}")
endif()

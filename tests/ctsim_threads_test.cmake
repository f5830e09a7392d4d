# Runs ctsim with ARGS at --threads 1 and at --threads 4 and fails unless
# both runs exit 0 and print byte-identical stdout (doc/PARALLEL.md).
#   cmake -DCTSIM=<ctsim binary> "-DARGS=<arguments>" -P ctsim_threads_test.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(threads 1 4)
  execute_process(COMMAND "${CTSIM}" ${args} --threads ${threads}
                  OUTPUT_VARIABLE out_${threads} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ctsim ${ARGS} --threads ${threads} exited with ${rc}:\n${out_${threads}}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "stdout differs between --threads 1 and --threads 4:\n"
                      "${out_1}\n--- vs ---\n${out_4}")
endif()
if(out_1 STREQUAL "")
  message(FATAL_ERROR "ctsim ${ARGS} printed nothing")
endif()

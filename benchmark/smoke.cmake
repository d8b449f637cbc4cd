# Runs every workload at --scale 0.02 in both modes and fails unless each
# invocation exits 0 with a correct result line. Invoked by the
# benchmark_smoke test with -DBENCH=<path to aqsios_bench>.
foreach(workload q500-bsd kernel-train join-window skew-elastic overload-admit)
  foreach(trace 0 1)
    execute_process(
      COMMAND ${BENCH} --workload ${workload} --seed 42 --seconds 0
              --scale 0.02 --trace ${trace}
      RESULT_VARIABLE status
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errors)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
        "${workload} --trace ${trace} exited ${status}\n${output}${errors}")
    endif()
    if(NOT output MATCHES "\n{\"correct\":true,[^\n]*}\n$")
      message(FATAL_ERROR
        "${workload} --trace ${trace}: no correct result line\n${output}")
    endif()
    message(STATUS "${workload} --trace ${trace}: ok")
  endforeach()
endforeach()

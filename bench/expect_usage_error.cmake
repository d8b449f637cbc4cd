# Runs one bench with a bad flag and passes only when the bench rejects it
# as a usage error: exit status 2 and the expected message on stderr. A run
# that exits 0 (flag silently accepted) or aborts (flag reached a CHECK)
# fails.
#
#   cmake -DBENCH=<binary> -DARGS="--shards 0" -DEXPECT="--shards must be"
#         -P expect_usage_error.cmake
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
    "expected exit status 2 for '${ARGS}', got '${status}'\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}' for '${ARGS}':\n${err}")
endif()

# Writes a trace whose third line is a malformed timestamp ("1.5abc"), runs
# `trace_tool inspect` on it and passes only when the tool refuses it
# cleanly: exit status 1 and "bad timestamp" in its output. A run that exits
# 0 (the line silently read as 1.5) or aborts fails.
#
#   cmake -DTOOL=<trace_tool> -DWORK_DIR=<dir> -P expect_bad_trace.cmake
set(trace "${WORK_DIR}/bad_timestamp.trace")
file(WRITE "${trace}" "# aqsios-trace v1\n0.5\n1.5abc\n")
execute_process(
  COMMAND "${TOOL}" inspect "--in=${trace}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "expected exit status 1 for ${trace}, got '${status}'\n${out}${err}")
endif()
string(FIND "${out}${err}" "bad timestamp" found)
if(found EQUAL -1)
  message(FATAL_ERROR "output lacks 'bad timestamp':\n${out}${err}")
endif()

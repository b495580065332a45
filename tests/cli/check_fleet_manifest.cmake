# Runs `simulate_cli --fleet 4 --obs-out MANIFEST` and checks the manifest
# exists, parses as JSON, and records the fleet configuration.
#
#   cmake -DSIMULATE_CLI=path/to/simulate_cli -DMANIFEST=out.json \
#         -P check_fleet_manifest.cmake
file(REMOVE "${MANIFEST}")
execute_process(
  COMMAND "${SIMULATE_CLI}" --fleet 4 --train 1 --eval 2 --obs-out
          "${MANIFEST}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "simulate_cli --fleet exited with ${status}")
endif()
if(NOT EXISTS "${MANIFEST}")
  message(FATAL_ERROR "simulate_cli --fleet wrote no manifest at ${MANIFEST}")
endif()
file(READ "${MANIFEST}" json)
string(JSON schema ERROR_VARIABLE error GET "${json}" schema)
if(error)
  message(FATAL_ERROR "manifest does not parse: ${error}")
endif()
if(NOT schema STREQUAL "rlblh-run-v1")
  message(FATAL_ERROR "manifest schema is '${schema}', want rlblh-run-v1")
endif()
string(JSON fleet ERROR_VARIABLE error GET "${json}" config fleet)
if(error OR NOT fleet STREQUAL "4")
  message(FATAL_ERROR "manifest config.fleet is '${fleet}' (${error})")
endif()
# --threads was not given, so the manifest must hold the resolved worker
# count, never the unresolved 0.
string(JSON threads ERROR_VARIABLE error GET "${json}" config threads)
if(error OR NOT threads MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "manifest config.threads is '${threads}' (${error})")
endif()

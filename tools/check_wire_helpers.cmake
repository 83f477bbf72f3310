# Wire-helper drift checker: every hdsm structure that crosses a node
# boundary is big-endian and decodes through one bounds-checked cursor,
# plat::WireReader, and encodes through plat::append_be / write_uint
# (src/platform/int_codec.hpp).  A private byte reader or a hand-rolled
# put/get helper elsewhere in src/ is a second wire codec to keep in step
# by hand, so this sweep fails on any file outside src/platform/ that
# defines a `Reader` class or struct, or defines or calls a put_u<N>,
# get_u<N> or read_u<N> function (with or without a be/le suffix).
#
# Invoked as:
#   cmake -DREPO_DIR=<repo root> -P check_wire_helpers.cmake

if(NOT DEFINED REPO_DIR)
  message(FATAL_ERROR "check_wire_helpers: pass -DREPO_DIR=<repo root>")
endif()
if(NOT EXISTS "${REPO_DIR}/src/platform/int_codec.hpp")
  message(FATAL_ERROR "check_wire_helpers: missing src/platform/int_codec.hpp")
endif()

file(GLOB_RECURSE sources RELATIVE "${REPO_DIR}"
     "${REPO_DIR}/src/*.cpp" "${REPO_DIR}/src/*.hpp")

set(patterns
    "[^A-Za-z0-9_](class|struct)[ \t\r\n]+Reader[^A-Za-z0-9_]"
    "[^A-Za-z0-9_](put|get|read)_u[0-9]+(be|le)?[ \t\r\n]*\\(")

set(offenders "")
foreach(rel IN LISTS sources)
  if(rel MATCHES "^src/platform/")
    continue()
  endif()
  file(READ "${REPO_DIR}/${rel}" text)
  # Prose in // comments may name the old helpers; only code counts.  The
  # leading newline gives a match at the very start a non-identifier byte
  # to anchor on.
  string(REGEX REPLACE "//[^\n]*" "" text "\n${text}")
  foreach(pattern IN LISTS patterns)
    string(REGEX MATCHALL "${pattern}" hits "${text}")
    foreach(hit IN LISTS hits)
      string(REGEX REPLACE "^[^A-Za-z]+" "" hit "${hit}")
      string(STRIP "${hit}" hit)
      list(APPEND offenders "${rel}: ${hit}")
    endforeach()
  endforeach()
endforeach()

if(offenders)
  list(REMOVE_DUPLICATES offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR
          "check_wire_helpers: private wire helpers outside src/platform/ "
          "(decode with plat::WireReader, encode with plat::append_be):\n"
          "  ${report}")
endif()
list(LENGTH sources n)
message(STATUS "check_wire_helpers: ${n} source files use the shared wire "
               "helpers only")

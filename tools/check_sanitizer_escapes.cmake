# Sanitizer-escape checker: a clean ThreadSanitizer run of the `faults`
# tests covers every memory access in src/ only while no code there hides
# from the sanitizer.  This sweep fails on any file under src/ that
# declares or calls an Annotate* hook (AnnotateIgnoreReadsBegin,
# AnnotateHappensBefore, ...), tests __SANITIZE_THREAD__ or
# __SANITIZE_ADDRESS__, or uses a no_sanitize attribute.
#
# Invoked as:
#   cmake -DREPO_DIR=<repo root> -P check_sanitizer_escapes.cmake

if(NOT DEFINED REPO_DIR)
  message(FATAL_ERROR "check_sanitizer_escapes: pass -DREPO_DIR=<repo root>")
endif()

file(GLOB_RECURSE sources RELATIVE "${REPO_DIR}"
     "${REPO_DIR}/src/*.cpp" "${REPO_DIR}/src/*.hpp")
if(NOT sources)
  message(FATAL_ERROR "check_sanitizer_escapes: no sources under src/")
endif()

set(patterns
    "[^A-Za-z0-9_]Annotate[A-Z][A-Za-z0-9_]*"
    "__SANITIZE_(THREAD|ADDRESS)__"
    "no_sanitize[A-Za-z0-9_]*")

set(offenders "")
foreach(rel IN LISTS sources)
  file(READ "${REPO_DIR}/${rel}" text)
  # Prose in // comments may name the escapes; only code counts.  The
  # leading newline gives a match at the very start a non-identifier byte
  # to anchor on.
  string(REGEX REPLACE "//[^\n]*" "" text "\n${text}")
  foreach(pattern IN LISTS patterns)
    string(REGEX MATCHALL "${pattern}" hits "${text}")
    foreach(hit IN LISTS hits)
      string(REGEX REPLACE "^[^A-Za-z_]+" "" hit "${hit}")
      list(APPEND offenders "${rel}: ${hit}")
    endforeach()
  endforeach()
endforeach()

if(offenders)
  list(REMOVE_DUPLICATES offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR
          "check_sanitizer_escapes: code under src/ hides from the "
          "sanitizers:\n  ${report}")
endif()
list(LENGTH sources n)
message(STATUS "check_sanitizer_escapes: ${n} source files, no sanitizer "
               "escapes")

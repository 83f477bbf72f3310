# Protocol docs drift checker: docs/PROTOCOL.md is the normative wire
# description, so every MsgType enumerator and every Message frame-header
# field declared in src/msg/message.hpp must be mentioned there, and every
# CoherenceEvent::Kind enumerator in src/dsm/coherence_core.hpp must open a
# row of its §6 event table (`Name{...}` in backticks).  Catches the
# classic failure mode of adding a message type, header field or core
# event and forgetting the spec (the compressed-payload flag nearly
# shipped that way).
#
# Invoked as:
#   cmake -DREPO_DIR=<repo root> -P check_protocol_tables.cmake

if(NOT DEFINED REPO_DIR)
  message(FATAL_ERROR "check_protocol_tables: pass -DREPO_DIR=<repo root>")
endif()

set(header "${REPO_DIR}/src/msg/message.hpp")
set(core_header "${REPO_DIR}/src/dsm/coherence_core.hpp")
set(doc "${REPO_DIR}/docs/PROTOCOL.md")
foreach(f IN ITEMS "${header}" "${core_header}" "${doc}")
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "check_protocol_tables: missing ${f}")
  endif()
endforeach()

file(READ "${header}" src)
file(READ "${doc}" spec)

# --- MsgType enumerators ---------------------------------------------------
string(REGEX MATCH "enum class MsgType[^{]*{([^}]*)}" _ "${src}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "check_protocol_tables: no MsgType enum in ${header}")
endif()
set(enum_body "${CMAKE_MATCH_1}")
# Drop // comments so prose identifiers inside them don't count as
# enumerators.
string(REGEX REPLACE "//[^\n]*" "" enum_body "${enum_body}")
string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*" enumerators "${enum_body}")

set(missing "")
foreach(name IN LISTS enumerators)
  if(NOT spec MATCHES "${name}")
    list(APPEND missing "MsgType::${name}")
  endif()
endforeach()

# --- Frame-header fields ---------------------------------------------------
# Every data member of msg::Message is a wire field and must appear in the
# frame table (or surrounding prose) of PROTOCOL.md.
string(REGEX MATCH "struct Message {(.*)wire_size" _ "${src}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "check_protocol_tables: no Message struct in ${header}")
endif()
set(struct_body "${CMAKE_MATCH_1}")
string(REGEX REPLACE "//[^\n]*" "" struct_body "${struct_body}")
# Member declarations: "<type> <name> = ...;" or "<type> <name>;" — the
# member name is the last identifier before '=' or ';'.
string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*[ \t]*[=;]" decls "${struct_body}")
set(fields "")
foreach(d IN LISTS decls)
  string(REGEX REPLACE "[ \t]*[=;]$" "" name "${d}")
  # Enumerator initializers (Hello, Little, ...) start uppercase; members
  # are lower_snake_case.
  if(name MATCHES "^[a-z]")
    list(APPEND fields "${name}")
  endif()
endforeach()
list(REMOVE_DUPLICATES fields)

foreach(name IN LISTS fields)
  if(NOT spec MATCHES "${name}")
    list(APPEND missing "Message::${name}")
  endif()
endforeach()

# --- CoherenceEvent kinds --------------------------------------------------
# Every input of the core is a protocol transition (and a replication log
# record), so each kind needs its event-table row: "`Kind{" opens it.
file(READ "${core_header}" core_src)
string(REGEX MATCH "struct CoherenceEvent {[^{]*enum class Kind[^{]*{([^}]*)}"
       _ "${core_src}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR
          "check_protocol_tables: no CoherenceEvent::Kind in ${core_header}")
endif()
set(kind_body "${CMAKE_MATCH_1}")
string(REGEX REPLACE "//[^\n]*" "" kind_body "${kind_body}")
string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*" kinds "${kind_body}")
foreach(name IN LISTS kinds)
  if(NOT spec MATCHES "`${name}{")
    list(APPEND missing "CoherenceEvent::Kind::${name}")
  endif()
endforeach()

if(missing)
  list(JOIN missing ", " missing_str)
  message(FATAL_ERROR
          "check_protocol_tables: docs/PROTOCOL.md does not mention: "
          "${missing_str}.  Update the frame table / MsgType table / §6 "
          "event table to keep the spec normative.")
endif()

list(LENGTH enumerators n_types)
list(LENGTH fields n_fields)
list(LENGTH kinds n_kinds)
message(STATUS "check_protocol_tables: ok (${n_types} message types, "
        "${n_fields} header fields, ${n_kinds} core events all documented)")

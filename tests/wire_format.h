//===- tests/wire_format.h - Hand-built frames and snapshots ----*- C++ -*-===//
///
/// \file
/// Byte-level builders for the on-wire and on-disk formats that tests
/// feed to readers directly: frame headers (runtime/ipc.h) and cache
/// snapshot entries (server/cache.h). The plain builders write the
/// current format; the *V1 ones write the FNV-1a 64 format before it,
/// the input of the stale-format tests.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_TESTS_WIRE_FORMAT_H
#define OPTOCT_TESTS_WIRE_FORMAT_H

#include "runtime/ipc.h"
#include "support/crc32c.h"
#include "support/fnv.h"
#include "support/textcodec.h"

#include <cstdint>
#include <string>

namespace optoct::wire {

inline constexpr const char *FrameMagic = "OFR2";
inline constexpr const char *FrameMagicV1 = "OFR1";
inline constexpr const char *CacheMagicLine = "optoct-cache v2\n";
inline constexpr const char *CacheMagicLineV1 = "optoct-cache v1\n";

inline void appendLe32(std::string &Out, std::uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

inline void appendLe64(std::string &Out, std::uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// A frame header with \p Magic announcing \p BodyLen bytes.
inline std::string frameHeader(const char *Magic, runtime::ipc::MsgType Type,
                               std::uint64_t BodyLen, std::uint64_t Sum) {
  std::string H = Magic;
  appendLe32(H, static_cast<std::uint32_t>(Type));
  appendLe64(H, BodyLen);
  appendLe64(H, Sum);
  return H;
}

/// A syntactically valid current header announcing \p BodyLen bytes —
/// the attacker-controlled prefix the max-frame bound must stop.
inline std::string headerAnnouncing(std::uint64_t BodyLen) {
  return frameHeader(FrameMagic, runtime::ipc::MsgType::Request, BodyLen,
                     0 /* checksum never reached */);
}

/// A whole, valid frame in the previous format: 'OFR1', FNV-1a 64.
inline std::string frameV1(runtime::ipc::MsgType Type,
                           const std::string &Body) {
  return frameHeader(FrameMagicV1, Type, Body.size(),
                     support::fnv1a64(Body)) +
         Body;
}

inline std::string entryHeader(const std::string &Key, const std::string &Len,
                               const std::string &Sum) {
  return "ent " + Key + " " + Len + " " + Sum + "\n";
}

/// One snapshot entry, header and record, as save() writes it.
inline std::string snapshotEntry(std::uint64_t Key, const std::string &Record) {
  return entryHeader(support::hex64(Key), std::to_string(Record.size()),
                     support::hex64(support::crc32c(Record))) +
         Record;
}

/// One entry of a v1 snapshot (FNV-1a 64 checksum).
inline std::string snapshotEntryV1(std::uint64_t Key,
                                   const std::string &Record) {
  return entryHeader(support::hex64(Key), std::to_string(Record.size()),
                     support::hex64(support::fnv1a64(Record))) +
         Record;
}

} // namespace optoct::wire

#endif // OPTOCT_TESTS_WIRE_FORMAT_H

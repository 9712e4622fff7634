// Typed error taxonomy for the persistence layer.
//
// Every way a store file can be unusable gets a kind plus the absolute
// byte offset where the problem was detected, so a corrupted-file report
// is actionable ("checksum mismatch at byte 18744" rather than "bad
// input"). io::TryLoadStore returns these through ipscope::Result;
// ToString() is the message callers print.
#pragma once

#include <cstdint>
#include <string>

namespace ipscope::io {

enum class StoreErrorKind {
  kOpenFailed,        // file could not be opened (message carries strerror)
  kBadMagic,          // not a store file / unknown format version
  kTruncated,         // stream ended inside a field
  kMalformed,         // field value violates the format invariants
  kChecksumMismatch,  // a CRC32C check failed (header, block, or stream)
  kWriteFailed,       // output stream entered a failed state
};

const char* StoreErrorKindName(StoreErrorKind kind);

struct StoreError {
  StoreErrorKind kind = StoreErrorKind::kMalformed;
  // Absolute byte offset (from the start of the store stream) at which the
  // problem was detected. 0 for kOpenFailed/kWriteFailed.
  std::uint64_t offset = 0;
  std::string message;

  // "ipscope store: <message> [<kind> at byte <offset>]"
  std::string ToString() const;
};

}  // namespace ipscope::io

#ifndef RDMAJOIN_TRANSPORT_TRANSPORT_KIND_H_
#define RDMAJOIN_TRANSPORT_TRANSPORT_KIND_H_

#include <iterator>
#include <string>
#include <string_view>

#include "util/statusor.h"

namespace rdmajoin {

/// The network mechanism used to exchange partitions (Section 4.2.2 and the
/// Figure 5b comparison).
enum class TransportKind {
  /// Two-sided RDMA SEND/RECV (channel semantics). The paper's evaluated
  /// configuration: the receiver posts small registered buffers and one
  /// thread per machine drains them, copying into per-partition storage.
  kRdmaChannel,
  /// One-sided RDMA WRITE (memory semantics). Requires enough memory to
  /// pre-register one large destination buffer per (partition, source
  /// machine), sized from the global histogram; no receiver involvement.
  kRdmaMemory,
  /// One-sided RDMA READ (memory semantics, pull): senders stage their
  /// partitioned data in registered local regions; each destination machine
  /// pulls its partitions at its own pace. Receiver-driven -- the dual of
  /// kRdmaMemory -- with the registration cost on the sender side.
  kRdmaRead,
  /// TCP/IP over the same fabric (IPoIB). Reduced effective bandwidth,
  /// per-message kernel-crossing cost, and sender-side copies.
  kTcp,
};

/// The names of the transports, in enum order: a tool's --transport values
/// and a saved trace's "transport".
inline constexpr std::string_view kTransportKindNames[] = {"channel", "memory",
                                                           "read", "tcp"};

/// The transport a name of kTransportKindNames names; any other name is
/// InvalidArgument.
inline StatusOr<TransportKind> TransportKindByName(std::string_view name) {
  for (size_t k = 0; k < std::size(kTransportKindNames); ++k) {
    if (name == kTransportKindNames[k]) return static_cast<TransportKind>(k);
  }
  return Status::InvalidArgument("unknown transport '" + std::string(name) +
                                 "' (channel|memory|read|tcp)");
}

/// The inverse of TransportKindByName.
inline std::string_view TransportKindName(TransportKind kind) {
  return kTransportKindNames[static_cast<size_t>(kind)];
}

/// Whether a sender overlaps partitioning with in-flight transfers
/// (Section 4.2.1: at least two RDMA buffers per target partition) or blocks
/// on each transfer (the non-interleaved variant of Figure 5b).
enum class InterleavePolicy {
  kInterleaved,
  kNonInterleaved,
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_TRANSPORT_TRANSPORT_KIND_H_

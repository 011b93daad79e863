#ifndef RDMAJOIN_TRANSPORT_TRANSPORT_KIND_H_
#define RDMAJOIN_TRANSPORT_TRANSPORT_KIND_H_

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

/// The transport a tool's --transport flag names: "channel", "memory",
/// "read" or "tcp". Any other name is InvalidArgument.
inline StatusOr<TransportKind> TransportKindByName(std::string_view name) {
  if (name == "channel") return TransportKind::kRdmaChannel;
  if (name == "memory") return TransportKind::kRdmaMemory;
  if (name == "read") return TransportKind::kRdmaRead;
  if (name == "tcp") return TransportKind::kTcp;
  return Status::InvalidArgument("unknown transport '" + std::string(name) +
                                 "' (channel|memory|read|tcp)");
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

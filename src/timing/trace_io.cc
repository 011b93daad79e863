#include "timing/trace_io.h"

#include <string_view>

#include "util/json.h"

namespace rdmajoin {

namespace {

/// A send: [dst_machine, slot, wire_bytes, compute_bytes_before], then
/// [retries, retry_delay_seconds] for sends the transport layer retried, then
/// [src_machine] for pull sends (RDMA READ) whose bytes leave another machine.
Status ReadSend(JsonReader* r, SendRecord* send) {
  RDMAJOIN_RETURN_IF_ERROR(r->Expect('['));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("dst_machine", &send->dst_machine));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("slot", &send->slot));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("wire_bytes", &send->wire_bytes));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(
      r->ReadInteger("compute_bytes_before", &send->compute_bytes_before));
  if (r->Consume(',')) {
    RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("retries", &send->retries));
    RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
    RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&send->retry_delay_seconds));
    if (r->Consume(',')) {
      RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("src_machine", &send->src_machine));
    }
  }
  return r->Expect(']');
}

Status ReadTask(JsonReader* r, BuildProbeTask* task) {
  RDMAJOIN_RETURN_IF_ERROR(r->Expect('['));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&task->build_bytes));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&task->probe_bytes));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&task->table_bytes));
  return r->Expect(']');
}

Status ReadMergeTask(JsonReader* r, double* bytes) { return r->ReadNumber(bytes); }

Status ReadTransport(JsonReader* r, TransportKind* transport) {
  std::string name;
  RDMAJOIN_RETURN_IF_ERROR(r->ReadString(&name));
  RDMAJOIN_ASSIGN_OR_RETURN(*transport, TransportKindByName(name));
  return Status::OK();
}

Status UnknownKey(const char* what, std::string_view key) {
  return Status::InvalidArgument(std::string("unknown ") + what + " key: " +
                                 std::string(key));
}

Status ReadThread(JsonReader* r, ThreadNetTrace* thread) {
  return r->ForEachMember([r, thread](std::string_view key) {
    if (key == "compute_bytes") return r->ReadInteger(key, &thread->compute_bytes);
    if (key == "sends") return r->ReadArray(&thread->sends, ReadSend);
    return UnknownKey("thread", key);
  });
}

Status ReadMachine(JsonReader* r, MachineTrace* m) {
  return r->ForEachMember([r, m](std::string_view key) {
    if (key == "histogram_bytes") return r->ReadInteger(key, &m->histogram_bytes);
    if (key == "histogram_exchange_seconds") {
      return r->ReadNumber(&m->histogram_exchange_seconds);
    }
    if (key == "recv_bytes") return r->ReadInteger(key, &m->recv_bytes);
    if (key == "recv_messages") return r->ReadInteger(key, &m->recv_messages);
    if (key == "local_pass_bytes") return r->ReadInteger(key, &m->local_pass_bytes);
    if (key == "sort_bytes") return r->ReadInteger(key, &m->sort_bytes);
    if (key == "stolen_in_bytes") return r->ReadInteger(key, &m->stolen_in_bytes);
    if (key == "materialized_bytes") return r->ReadInteger(key, &m->materialized_bytes);
    if (key == "setup_registration_seconds") {
      return r->ReadNumber(&m->setup_registration_seconds);
    }
    if (key == "per_send_registration_seconds") {
      return r->ReadNumber(&m->per_send_registration_seconds);
    }
    if (key == "net_threads") return r->ReadArray(&m->net_threads, ReadThread);
    if (key == "tasks") return r->ReadArray(&m->tasks, ReadTask);
    if (key == "merge_tasks") return r->ReadArray(&m->merge_tasks, ReadMergeTask);
    return UnknownKey("machine", key);
  });
}

/// A send must name machines of its trace: the replay indexes its per-link
/// state by (source, destination).
Status CheckSendMachines(const RunTrace& trace) {
  const size_t n = trace.machines.size();
  for (size_t m = 0; m < n; ++m) {
    for (const ThreadNetTrace& thread : trace.machines[m].net_threads) {
      for (const SendRecord& send : thread.sends) {
        const bool bad_dst = send.dst_machine >= n;
        if (bad_dst || (send.src_machine != SendRecord::kIssuerIsSource &&
                        send.src_machine >= n)) {
          return Status::InvalidArgument(
              "machine " + std::to_string(m) +
              (bad_dst ? " sends to dst_machine " + std::to_string(send.dst_machine)
                       : " sends from src_machine " + std::to_string(send.src_machine)) +
              " of a " + std::to_string(n) + "-machine trace");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string TraceToJson(const RunTrace& trace) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("scale_up").Double17(trace.scale_up);
  // Channel traces (the default) omit the key and stay byte-identical.
  if (trace.transport != TransportKind::kRdmaChannel) {
    w.Key("transport").String(TransportKindName(trace.transport));
  }
  w.Key("machines").BeginArray();
  for (const MachineTrace& mt : trace.machines) {
    w.BeginObject()
        .Key("histogram_bytes").Uint(mt.histogram_bytes)
        .Key("histogram_exchange_seconds").Double17(mt.histogram_exchange_seconds)
        .Key("recv_bytes").Uint(mt.recv_bytes)
        .Key("recv_messages").Uint(mt.recv_messages)
        .Key("local_pass_bytes").Uint(mt.local_pass_bytes)
        .Key("sort_bytes").Uint(mt.sort_bytes)
        .Key("stolen_in_bytes").Uint(mt.stolen_in_bytes)
        .Key("materialized_bytes").Uint(mt.materialized_bytes)
        .Key("setup_registration_seconds").Double17(mt.setup_registration_seconds)
        .Key("per_send_registration_seconds").Double17(mt.per_send_registration_seconds)
        .Key("net_threads").BeginArray();
    for (const ThreadNetTrace& tt : mt.net_threads) {
      w.BeginObject().Key("compute_bytes").Uint(tt.compute_bytes);
      w.Key("sends").BeginArray();
      for (const SendRecord& send : tt.sends) {
        w.BeginArray()
            .Uint(send.dst_machine)
            .Uint(send.slot)
            .Uint(send.wire_bytes)
            .Uint(send.compute_bytes_before);
        // Optional elements: fault-free push traces stay byte-identical.
        const bool pull = send.src_machine != SendRecord::kIssuerIsSource;
        if (pull || send.retries > 0 || send.retry_delay_seconds > 0) {
          w.Uint(send.retries).Double17(send.retry_delay_seconds);
        }
        if (pull) w.Uint(send.src_machine);
        w.EndArray();
      }
      w.EndArray().EndObject();
    }
    w.EndArray().Key("tasks").BeginArray();
    for (const BuildProbeTask& task : mt.tasks) {
      w.BeginArray()
          .Double17(task.build_bytes)
          .Double17(task.probe_bytes)
          .Double17(task.table_bytes)
          .EndArray();
    }
    w.EndArray().Key("merge_tasks").BeginArray();
    for (const double bytes : mt.merge_tasks) w.Double17(bytes);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

StatusOr<RunTrace> TraceFromJson(const std::string& json) {
  JsonReader r(json);
  RunTrace trace;
  RDMAJOIN_RETURN_IF_ERROR(r.ForEachMember([&r, &trace](std::string_view key) {
    if (key == "scale_up") return r.ReadNumber(&trace.scale_up);
    if (key == "transport") return ReadTransport(&r, &trace.transport);
    if (key == "machines") return r.ReadArray(&trace.machines, ReadMachine);
    return UnknownKey("trace", key);
  }));
  RDMAJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  RDMAJOIN_RETURN_IF_ERROR(CheckSendMachines(trace));
  return trace;
}

Status WriteTraceFile(const RunTrace& trace, const std::string& path) {
  return WriteStringToFile(path, TraceToJson(trace));
}

StatusOr<RunTrace> ReadTraceFile(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    return Status::NotFound("cannot open " + path);
  }
  return TraceFromJson(text);
}

}  // namespace rdmajoin

// Umbrella header: the whole public API of hdsm.
//
// Fine-grained headers remain available (and are what the library's own
// code uses); include this one from application code for convenience.
#pragma once

// Platform ABI models and scalar codecs.
#include "platform/byteswap.hpp"
#include "platform/float_codec.hpp"
#include "platform/int_codec.hpp"
#include "platform/platform.hpp"

// Type description and the CGT-RMR tag system.
#include "tags/describe.hpp"
#include "tags/layout.hpp"
#include "tags/tag.hpp"
#include "tags/type_desc.hpp"

// Data conversion (CGT-RMR engine + XDR comparator).
#include "convert/converter.hpp"
#include "convert/xdr.hpp"

// Write detection substrate.
#include "memory/diff.hpp"
#include "memory/region.hpp"
#include "memory/write_trap.hpp"

// Index tables (paper Table 1).
#include "index/index_table.hpp"

// Message transports.
#include "msg/endpoint.hpp"
#include "msg/message.hpp"
#include "msg/tcp.hpp"

// The distributed-shared-data core.
#include "dsm/arena.hpp"
#include "dsm/global_space.hpp"
#include "dsm/image_io.hpp"
#include "dsm/mth.hpp"
#include "dsm/rehome.hpp"
#include "dsm/scoped_lock.hpp"
#include "dsm/sharded_cluster.hpp"
#include "dsm/sharded_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/stats.hpp"
#include "dsm/trace.hpp"

// MigThread-style migration runtime.
#include "mig/checkpoint.hpp"
#include "mig/io_state.hpp"
#include "mig/portable_heap.hpp"
#include "mig/roles.hpp"
#include "mig/runner.hpp"
#include "mig/struct_image.hpp"
#include "mig/tagged_convert.hpp"
#include "mig/thread_state.hpp"

// Adaptation scheduling.
#include "sched/policy.hpp"

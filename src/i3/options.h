// Configuration of the I3 index.

#ifndef I3_I3_OPTIONS_H_
#define I3_I3_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/geo.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace i3 {

/// \brief Options for I3Index. Defaults follow the paper's setup, P = 4KB
/// pages and eta = 300. Pages hold the compressed cell encoding of
/// i3/cell_codec.h rather than the paper's P/B = 128 fixed 32-byte slots,
/// so a 4KB page holds several times more tuples.
struct I3Options {
  /// The data space; every indexed location must fall inside. This is the
  /// root quadtree cell.
  Rect space{-180.0, -90.0, 180.0, 90.0};

  /// Page size P in bytes; at least codec::kV2MinPageSize (512).
  size_t page_size = kDefaultPageSize;

  /// Signature length eta in bits (tuned in the paper's Figure 5).
  uint32_t signature_bits = 300;

  /// Deepest quadtree level a keyword cell may split to. Cells at this
  /// level grow an overflow page chain instead of splitting (only reachable
  /// with pathological duplicate locations).
  uint8_t max_split_level = 24;

  /// Enables signature-intersection pruning under AND semantics
  /// (Algorithm 5). Disable only for ablation studies.
  bool signature_pruning = true;

  /// Prune child cells with the summaries already held in the parent node
  /// before fetching their data pages. Disable to get the literal eager
  /// fetching of Algorithm 4 (ablation).
  bool summary_screen = true;

  /// Verify every data-file page with a CRC32C checksum header
  /// (storage/checksummed_page_file.h). The physical backing is allocated
  /// kPageHeaderBytes (16) larger per page so the caller-facing page size --
  /// and with it page capacity and I/O counts -- is unchanged; a damaged
  /// page surfaces as Status::Corruption instead of a silently wrong top-k.
  /// Overhead is one CRC pass per physical page access (cache hits never
  /// pay it). Disable only for ablation.
  bool checksum_pages = true;

  /// Head-file pager: summary nodes are charged per *page* of
  /// page_size / node-bytes nodes through an LRU pool of this many pages
  /// (the same working-buffer model the data file's buffer pool applies),
  /// instead of one charged read per node access. 0 restores the legacy
  /// per-node charging.
  uint32_t head_pool_pages = 128;

  /// When non-empty, the data file is stored on disk at this path;
  /// otherwise it lives in memory (with identical I/O accounting).
  std::string data_file_path;

  /// Custom data-file backing (takes precedence over data_file_path);
  /// used by the fault-injection tests.
  std::function<std::unique_ptr<PageFile>(size_t page_size)>
      page_file_factory;

  /// Page cache for the data file. The default 512-page (2MB at P = 4KB)
  /// write-through pool models the working buffer any deployment would
  /// give the index; insertions then cost one write instead of a
  /// read-modify-write pair. Benchmarks drop it to a cold state before
  /// every query set (Section 6.3's "clear the system cache").
  BufferPoolOptions buffer_pool{/*capacity_pages=*/512,
                                /*simulated_miss_latency_us=*/0};

  /// Byte budget of the decoded-cell cache (i3/cell_cache.h) layered over
  /// the data-file pool: hot keyword cells replay their decoded tuples
  /// without touching (or re-decoding) the page. 0 disables it; it is
  /// forced off whenever the buffer pool is uncached (capacity 0), keeping
  /// the deterministic-I/O mode deterministic. The default 16MB holds the
  /// hot cells of the benchmark workloads several times over while staying
  /// small next to the data file itself.
  size_t cell_cache_bytes = 16u << 20;
};

}  // namespace i3

#endif  // I3_I3_OPTIONS_H_

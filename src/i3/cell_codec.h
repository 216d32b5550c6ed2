// The v2 compressed keyword-cell page encoding and its block decoder: the
// one format of every I3 data-file page.
//
// Motivation (Navarro & Valenzuela; Hon/Shah/Thankachan, PAPERS.md): most
// of the I3 query cost is page reads whose tuples never enter the top-k
// heap. Packing several times more tuples into each 4KB page than the
// paper's P/B = 128 fixed 32-byte slots shrinks the data file -- and with
// it the cold-cache pages/query figure the paper reports -- without
// changing a single byte of any answer.
//
// A v2 page groups its tuples by keyword cell (source id) and encodes each
// group column-wise. Every transform is *lossless*: doc ids are offsets
// from the group minimum, bit-packed at the narrowest sufficient width;
// term weights are raw float32 unless the whole group survives an exact
// round-trip through 16-bit quantization (or is constant); coordinates are
// stored as the XOR of each double against the group's first tuple,
// truncated to the bytes that actually differ -- tuples of one keyword cell
// are spatially close, so their doubles share sign/exponent/high-mantissa
// bytes. Within-group tuple order is insertion order.
//
// Page layout (little-endian; all offsets from the page start):
//
//   header  (12B): u32 magic "I3V2" | u16 version | u16 group_count |
//                  u32 used_bytes
//   directory (group_count x 20B): u32 source | u32 term | u32 count |
//                  u32 offset | f32 block_max   (per-group max term weight)
//   groups, each at its directory offset:
//     u32 min_doc | u8 doc_bits | u8 weight_mode | u8 x_bytes | u8 y_bytes |
//     f64 base_x | f64 base_y |
//     [mode 1: f32 w_min, f32 w_step] [mode 2: f32 w_const] |
//     doc deltas   ceil(count * doc_bits / 8) bytes (LSB-first bit stream) |
//     weights      mode 0: 4*count, mode 1: 2*count, mode 2: 0 bytes |
//     x residuals  x_bytes * count | y residuals  y_bytes * count
//
// The directory makes group location and the per-cell block-max bound
// readable without decoding any payload; the block_max field mirrors the
// summary-node max_s for the cell's tuples on this page (cross-checked by
// the invariant tests, usable for page-local skipping diagnostics).
//
// The hot-path decoder is runtime-dispatched like storage/checksum.cc: an
// AVX2 gather/variable-shift bit-unpacker is self-tested against the
// portable implementation at startup and only then allowed to serve.
// Decoding is bounds-checked end to end -- a truncated or bit-flipped page
// surfaces as Status::Corruption, never as out-of-bounds reads -- because
// with checksums disabled this is the only line of defense.
//
// A page never written is all zero and reads as an empty page (no magic,
// no groups); any other page without the magic is Corruption.

#ifndef I3_I3_CELL_CODEC_H_
#define I3_I3_CELL_CODEC_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace i3 {

struct StoredTuple;   // i3/data_file.h
struct SpatialTuple;  // model/document.h
struct CellColumns;   // i3/cell_cache.h

namespace codec {

/// "I3V2" little-endian.
constexpr uint32_t kV2PageMagic = 0x32563349u;
constexpr uint16_t kV2FormatVersion = 2;

constexpr size_t kV2PageHeaderBytes = 12;
constexpr size_t kV2DirEntryBytes = 20;
/// Group header plus the largest weight-mode extension (mode 1: 8 bytes).
constexpr size_t kV2MaxGroupHeaderBytes = 24 + 8;
/// Worst case per tuple: 4B doc delta + 4B raw weight + 8B per coordinate.
constexpr size_t kV2MaxTupleBytes = 24;

/// \brief Upper bound on the bytes a *new* group of `n` tuples adds to a
/// page (directory entry + group header + worst-case payload). Used by
/// placement: a page whose free-byte count covers this bound is guaranteed
/// to accept the cell without a trial encode.
inline size_t NewCellUpperBoundBytes(size_t n) {
  return kV2DirEntryBytes + kV2MaxGroupHeaderBytes + n * kV2MaxTupleBytes;
}

/// \brief Smallest page size of an I3 data file; smaller sizes are
/// refused. A group costs 56 bytes of page header, directory entry and
/// group header before its first row, so smaller pages would hold only a
/// handful of tuples per keyword cell.
constexpr size_t kV2MinPageSize = 512;

/// \brief Subset-stable one-page envelope of a keyword cell: an upper
/// bound on the encoded size of `tuples[0..n)` alone on a page that also
/// bounds every *subset* of them (re-based to the subset's own first
/// tuple). Doc-delta widths and coordinate-residual widths only shrink
/// under subsetting -- SigBytes(a^b) never exceeds the wider of
/// SigBytes(a), SigBytes(b), so re-basing cannot widen a residual -- and
/// the weight term takes the worse of raw and quantized layouts. This is
/// the v2 split trigger: while a cell stays under the envelope, the cell
/// itself *and every quadrant piece a split produces* are guaranteed to
/// fit alone on a fresh page, so maintenance never wedges.
size_t CellEnvelopeBytes(const SpatialTuple* tuples, size_t n);
/// Columnar form of the envelope (rows in slot order).
size_t CellEnvelopeBytes(const CellColumns& cell);

/// True if the page bytes carry the v2 magic + version (false for a zero
/// page, which the read and splice paths treat as empty).
bool IsV2Page(const uint8_t* page, size_t page_size);

// ------------------------------------------------------------- write path
//
// Every group is encoded from its own rows alone, so a page is canonical:
// it equals EncodePage of its decoded slots, and a write that changes one
// keyword cell can re-encode that cell's group and copy every other group
// byte for byte (SpliceGroup). An append whose row fits the group's plan
// does not even re-encode that group: the row's offset, weight and
// residuals join the end of their column sections, and the grown group --
// still what EncodePage makes of its rows -- is written in place or, when
// its page is full, alone as a one-group page that relocation copies to
// the target page as bytes (AppendRow, AddGroup).

/// \brief Exact encoded size of `slots[0..n)` as one v2 page.
size_t EncodedPageSize(const StoredTuple* slots, size_t n);

/// \brief Encodes `slots[0..n)` into `out` (page_size bytes); groups appear
/// in first-appearance order of their source, tuples keep their slot order
/// within a group, and the bytes past the encoding are zeroed. Returns the
/// bytes used, or ResourceExhausted when the encoding exceeds `page_size`
/// (nothing is written then).
Result<size_t> EncodePage(const StoredTuple* slots, size_t n, uint8_t* out,
                          size_t page_size);

/// \brief Writes v2 or zero page `page` into `out` (page_size bytes, not
/// aliasing `page`) with the group of `source` replaced by the rows
/// `cell`, in place: `cell.n == 0` drops the group, and a source the page
/// lacks is appended as the last group. Every other group's bytes are copied
/// unchanged; the header and directory offsets are rewritten and the tail
/// is zeroed, so the result equals EncodePage of the edited slots byte for
/// byte. The directory is validated before it is trusted (offsets back to
/// back from the directory's end, ascending, inside `used`; `used` within
/// the page): damage returns Corruption. An edit that does not fit returns
/// ResourceExhausted. On any error nothing is written.
Result<size_t> SpliceGroup(const uint8_t* page, size_t page_size,
                           uint32_t source, const CellColumns& cell,
                           uint8_t* out);

/// \brief Writes the group of rows `cell` (n >= 1) under `source` alone
/// as a one-group page into `out` (page_size bytes): EncodePage of its
/// rows. Returns the bytes used.
Result<size_t> EncodeGroupPage(uint32_t source, const CellColumns& cell,
                               uint8_t* out, size_t page_size);

/// What AppendRow did with its row.
enum class RowAppend {
  kReplan,     ///< the page has no group of the source, or the row changes
               ///< its plan: nothing written (decode and splice instead)
  kOversized,  ///< the grown cell fails the density test -- its envelope
               ///< exceeds the page -- so it must split: nothing written
  kAppended,   ///< `out` holds the page with the row appended
  kOverflow,   ///< the grown group does not fit its page: `out` holds it
               ///< alone as a one-group page, for AddGroup on another page
};

struct AppendResult {
  RowAppend outcome = RowAppend::kReplan;
  size_t used = 0;      ///< bytes used in `out` (kAppended, kOverflow)
  size_t envelope = 0;  ///< CellEnvelopeBytes of the grown cell (not kReplan)
};

/// \brief Appends `row` to the group of `source` on v2 page `page` without
/// decoding the group, when the row fits the group's plan: its doc id is
/// at least `min_doc` and its offset fits `doc_bits`, its coordinate
/// residuals fit `x_bytes`/`y_bytes`, and its weight equals the constant
/// (constant mode), lies in [w_min, block_max] and survives the 16-bit
/// round trip exactly (q16 mode), or lies in the raw column's range (raw
/// mode). The row's term is the group's. The directory is validated as
/// SpliceGroup validates it, and the group's header must describe exactly
/// its directory extent: damage returns Corruption. On a fit the density
/// test is answered from the header, and the grown group -- EncodePage of
/// the grown rows, byte for byte -- is written as section copies plus one
/// entry per column (see RowAppend). `out` is page_size bytes and does not
/// alias `page`; it is untouched unless the outcome says it is written.
Result<AppendResult> AppendRow(const uint8_t* page, size_t page_size,
                               uint32_t source, const SpatialTuple& row,
                               uint8_t* out);

/// \brief Writes v2 page `page` into `out` (page_size bytes, not aliasing
/// `page`) with the group of the one-group page `group` -- as AppendRow's
/// overflow or EncodeGroupPage leaves it -- in place of the page's group of
/// the same source, or appended as the last group. Both pages are
/// validated as SpliceGroup validates its page; the group's bytes are
/// copied unchanged, so the result equals EncodePage of the edited slots.
/// ResourceExhausted (nothing written) when it does not fit.
Result<size_t> AddGroup(const uint8_t* page, size_t page_size,
                        const uint8_t* group, uint8_t* out);

// -------------------------------------------------------------- read path

/// One directory entry, decoded.
struct GroupRef {
  uint32_t source = 0;
  uint32_t term = 0;
  uint32_t count = 0;
  uint32_t offset = 0;
  float block_max = 0.0f;
};

/// \brief Validated group count of a v2 page (header + directory bounds);
/// 0 for a zero page.
Result<uint32_t> GroupCount(const uint8_t* page, size_t page_size);

/// \brief Reads directory entry `g` with bounds checks.
Status ReadGroupRef(const uint8_t* page, size_t page_size, uint32_t g,
                    GroupRef* out);

/// \brief Locates the group of `source`; false if the page has none.
Result<bool> FindGroup(const uint8_t* page, size_t page_size, uint32_t source,
                       GroupRef* out);

/// Columnar view of one decoded group; pointers live in a DecodeScratch
/// lease and stay valid until the lease is released.
struct DecodedGroup {
  const uint32_t* docs = nullptr;
  const float* weights = nullptr;
  const double* xs = nullptr;
  const double* ys = nullptr;
  uint32_t n = 0;
};

/// \brief RAII lease on one level of the per-thread decode scratch stack
/// (stacked like DataFile's view scratch, so nested decodes -- an invariant
/// checker holding one view while opening another -- never alias). Steady
/// state allocates nothing.
class DecodeScratch {
 public:
  DecodeScratch();
  ~DecodeScratch();
  DecodeScratch(const DecodeScratch&) = delete;
  DecodeScratch& operator=(const DecodeScratch&) = delete;

 private:
  friend Status DecodeGroup(const uint8_t*, size_t, const GroupRef&,
                            DecodeScratch*, DecodedGroup*);
  void* slot_;  // internal buffer set
};

/// \brief Decodes group `g` into `scratch`, publishing the columnar arrays
/// through `out`. Every field and payload extent is validated against
/// `page_size`; damage surfaces as Status::Corruption.
Status DecodeGroup(const uint8_t* page, size_t page_size, const GroupRef& g,
                   DecodeScratch* scratch, DecodedGroup* out);

namespace internal {

/// Reference bit-unpacker (LSB-first stream of `bits`-wide values).
void UnpackBitsPortable(const uint8_t* src, uint32_t n, uint32_t bits,
                        uint32_t* out);

/// \brief Dispatched bit-unpacker. `src_readable` is the number of bytes
/// that may be touched from `src` onward (the SIMD path reads whole 32-bit
/// windows and falls back to the portable loop near the end of the
/// readable range).
void UnpackBits(const uint8_t* src, size_t src_readable, uint32_t n,
                uint32_t bits, uint32_t* out);

/// Reference packer (write path; scalar only).
void PackBits(const uint32_t* vals, uint32_t n, uint32_t bits, uint8_t* dst);

/// True when the startup self-test selected the SIMD unpacker.
bool UsingSimdUnpack();

}  // namespace internal

}  // namespace codec
}  // namespace i3

#endif  // I3_I3_CELL_CODEC_H_

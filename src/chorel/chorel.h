#ifndef DOEM_CHOREL_CHOREL_H_
#define DOEM_CHOREL_CHOREL_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "chorel/doem_view.h"
#include "doem/doem.h"
#include "encoding/encode_incremental.h"
#include "lorel/lorel.h"
#include "obs/metrics.h"
#include "oem/change.h"
#include "oem/oem.h"
#include "vm/compile.h"
#include "vm/vm.h"

namespace doem {
namespace chorel {

/// The two implementation strategies discussed in Section 5.
enum class Strategy {
  /// Evaluate annotation expressions directly against the DOEM database
  /// ("extend the Lore kernel").
  kDirect,
  /// Encode the DOEM database in plain OEM (Section 5.1) and translate
  /// the Chorel query to Lorel over the encoding (Section 5.2) — the
  /// paper's layered implementation.
  kTranslated,
};

/// A parsed, normalized query, reusable across polls. The Section 5.2
/// translation is derived lazily on the first translated-strategy run and
/// cached (translation errors are not cached and re-surface per run).
struct CompiledQuery {
  lorel::NormQuery normalized;
  std::optional<lorel::NormQuery> translated;
  /// Lazily compiled bytecode programs, one per evaluated form
  /// (DESIGN.md §6f). Compilation failure is sticky and falls back to the
  /// tree walker forever; see ChorelEngineOptions::use_vm.
  vm::ProgramCache vm_direct;
  vm::ProgramCache vm_translated;
};

/// Parses and normalizes `query` for repeated evaluation.
Result<CompiledQuery> CompileChorel(const std::string& query);

/// Interns compiled filters by query text so many subscribers that watch
/// one group through the same filter share a single compiled form — the
/// lazily cached Section 5.2 translation and the bytecode programs are
/// built once and reused across the whole cohort (DESIGN.md §6g). A pool
/// belongs to one engine's single-threaded evaluation context (QSS: the
/// serial commit phase); entries live as long as the pool plus any
/// subscriber still holding the shared_ptr.
class CompiledQueryPool {
 public:
  /// The pooled compiled form of `query`, compiling it on first use.
  Result<std::shared_ptr<CompiledQuery>> Get(const std::string& query);

  /// Interns an already-compiled form (skips the re-parse when the
  /// caller validated the query separately). If the text is already
  /// pooled, the existing entry wins and `compiled` is discarded.
  std::shared_ptr<CompiledQuery> Intern(const std::string& query,
                                        CompiledQuery compiled);

  /// Distinct filter texts pooled.
  size_t size() const { return pool_.size(); }
  /// Lookups served by an existing entry (the sharing win).
  uint64_t hits() const { return hits_; }

 private:
  std::unordered_map<std::string, std::shared_ptr<CompiledQuery>> pool_;
  uint64_t hits_ = 0;
};

struct ChorelEngineOptions {
  /// Maintain the cached OEM encoding incrementally via ApplyDelta —
  /// O(delta) per change set. When false (the ablation baseline),
  /// ApplyDelta merely invalidates and the next translated run re-encodes
  /// from scratch. The annotation index is the database's own and is
  /// always current.
  bool incremental = true;
  /// Let direct-strategy evaluation read the database's annotation index
  /// (DoemDatabase::annotation_index), so the bytecode VM enumerates
  /// candidates of time-bounded annotation expressions from its postings
  /// (DESIGN.md §6c). Speed only: rows, their order and errors are the
  /// same either way. The tree walker never seeds.
  bool seed_from_index = false;
  /// Debug cross-check: after every ApplyDelta, decode the patched
  /// encoding back to a DOEM database and build the annotation index from
  /// scratch, failing if either diverges from the database. Slow; for
  /// tests.
  bool verify_incremental = false;
  /// Evaluate queries on the bytecode VM (DESIGN.md §6f) when they
  /// compile, falling back to the tree-walking evaluator for uncovered
  /// constructs and on any VM error. Rows, order, packaging, and errors
  /// are identical either way; only speed differs.
  bool use_vm = true;
  /// Debug cross-check: run every VM evaluation through the tree walker
  /// too and fail with Internal if rows or packaged answers diverge.
  /// Slow; for tests.
  bool verify_vm = false;
  /// Optional metrics sink (not owned; must outlive the engine). The
  /// engine counts cache patches vs. rebuilds, verify cross-check
  /// failures, and translation cache hits/misses, and mirrors the
  /// encoder tallies and the database's posting sizes as gauges
  /// (DESIGN.md §6d).
  /// Purely observational: rows and caches are identical without it.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A Chorel query processor over one DOEM database, supporting both
/// strategies. The translated strategy encodes the database once, lazily,
/// and caches the encoding; after mutating the DOEM database either patch
/// the caches with ApplyDelta(...) (O(delta)) or drop them with
/// Invalidate().
///
/// Both strategies produce identical rows for every supported query (a
/// property the test suite checks exhaustively). The packaged `answer`
/// databases differ by design: the translated strategy returns encoding
/// objects, which carry their history with them (end of Section 5.2).
class ChorelEngine {
 public:
  explicit ChorelEngine(const DoemDatabase& d,
                        ChorelEngineOptions options = {});

  /// Parses, normalizes, (optionally translates,) and evaluates `query`.
  Result<lorel::QueryResult> Run(const std::string& query,
                                 Strategy strategy,
                                 const lorel::EvalOptions& opts = {});

  /// As Run, but with the parse/normalize (and, after the first
  /// translated run, the translation) already done — the per-poll path.
  Result<lorel::QueryResult> RunCompiled(CompiledQuery* q, Strategy strategy,
                                         const lorel::EvalOptions& opts = {});

  /// Patches the cached encoding with one change set that was just
  /// applied to the database (call after ApplyChangeSet). With
  /// options.incremental false — or on a patch error — the encoding is
  /// dropped instead and the next translated run rebuilds it, so
  /// correctness never depends on this call succeeding.
  Status ApplyDelta(Timestamp t, const ChangeSet& ops);

  /// Drops the cached encoding. Required when the database changed other
  /// than by one appended change set: e.g. DoemDatabase::RebaseAndApply,
  /// the QSS two-snapshot step, which also drops the previous step's
  /// history.
  void Invalidate();

  /// The cached encoding (encodes now if needed). Exposed for benchmarks.
  Result<const OemDatabase*> Encoding();

 private:
  /// Evaluates `nq` on the bytecode VM when enabled and compilable,
  /// otherwise (or on any VM error) on the tree walker.
  Result<lorel::QueryResult> Eval(const lorel::NormQuery& nq,
                                  vm::ProgramCache* cache,
                                  const lorel::GraphView& view,
                                  const lorel::EvalOptions& opts);
  Status VerifyCaches() const;
  /// Mirrors the encoder tallies and the database's posting sizes into
  /// the metrics gauges.
  void PublishCacheStats();

  const DoemDatabase& doem_;
  ChorelEngineOptions options_;
  std::optional<IncrementalEncoder> encoder_;

  /// Instrument handles resolved once at construction (null without a
  /// registry — updates are guarded).
  struct Instruments {
    obs::Counter* cache_patches = nullptr;
    obs::Counter* cache_invalidations = nullptr;
    obs::Counter* encoding_rebuilds = nullptr;
    obs::Counter* verify_failures = nullptr;
    obs::Counter* translation_hits = nullptr;
    obs::Counter* translation_misses = nullptr;
    obs::Gauge* encoder_patch_ops = nullptr;
    obs::Gauge* encoder_aux_allocations = nullptr;
    // Bytecode VM (DESIGN.md §6f).
    obs::Counter* vm_compiles = nullptr;
    obs::Counter* vm_compile_fallbacks = nullptr;
    obs::Counter* vm_runs = nullptr;
    obs::Counter* vm_run_fallbacks = nullptr;
    obs::Counter* vm_verify_failures = nullptr;
    obs::Gauge* vm_program_instructions = nullptr;
    // Annotation-index posting sizes.
    obs::Gauge* index_postings_cre = nullptr;
    obs::Gauge* index_postings_upd = nullptr;
    obs::Gauge* index_postings_add = nullptr;
    obs::Gauge* index_postings_rem = nullptr;
  };
  Instruments ins_;
};

/// One-shot conveniences.
Result<lorel::QueryResult> RunChorel(const DoemDatabase& d,
                                     const std::string& query,
                                     Strategy strategy,
                                     const lorel::EvalOptions& opts = {});

}  // namespace chorel
}  // namespace doem

#endif  // DOEM_CHOREL_CHOREL_H_

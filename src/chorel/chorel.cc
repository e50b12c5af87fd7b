#include "chorel/chorel.h"

#include "chorel/translate.h"
#include "encoding/encode.h"

namespace doem {
namespace chorel {

Result<CompiledQuery> CompileChorel(const std::string& query) {
  auto nq = lorel::ParseAndNormalize(query);
  if (!nq.ok()) return nq.status();
  CompiledQuery out;
  out.normalized = std::move(nq).value();
  return out;
}

Result<std::shared_ptr<CompiledQuery>> CompiledQueryPool::Get(
    const std::string& query) {
  auto it = pool_.find(query);
  if (it != pool_.end()) {
    ++hits_;
    return it->second;
  }
  auto compiled = CompileChorel(query);
  if (!compiled.ok()) return compiled.status();
  auto shared = std::make_shared<CompiledQuery>(std::move(compiled).value());
  pool_.emplace(query, shared);
  return shared;
}

std::shared_ptr<CompiledQuery> CompiledQueryPool::Intern(
    const std::string& query, CompiledQuery compiled) {
  auto it = pool_.find(query);
  if (it != pool_.end()) {
    ++hits_;
    return it->second;
  }
  auto shared = std::make_shared<CompiledQuery>(std::move(compiled));
  pool_.emplace(query, shared);
  return shared;
}

ChorelEngine::ChorelEngine(const DoemDatabase& d, ChorelEngineOptions options)
    : doem_(d), options_(options) {
  obs::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  ins_.cache_patches = m->GetCounter(
      "chorel.cache_patches", "ApplyDelta calls that patched the encoding");
  ins_.cache_invalidations = m->GetCounter(
      "chorel.cache_invalidations",
      "encoding drops (Invalidate, non-incremental ApplyDelta, patch errors)");
  ins_.encoding_rebuilds = m->GetCounter(
      "chorel.encoding_rebuilds", "from-scratch Section 5.1 encodings");
  ins_.verify_failures = m->GetCounter(
      "chorel.verify_failures",
      "verify_incremental cross-checks that found divergence");
  ins_.translation_hits = m->GetCounter(
      "chorel.translation_cache_hits",
      "translated runs reusing the cached Section 5.2 translation");
  ins_.translation_misses = m->GetCounter(
      "chorel.translation_cache_misses",
      "translated runs that had to translate the query first");
  ins_.encoder_patch_ops = m->GetGauge(
      "encoding.patch_ops", "change ops patched into the cached encoding");
  ins_.encoder_aux_allocations =
      m->GetGauge("encoding.aux_allocations",
                  "auxiliary encoding nodes allocated by patching");
  ins_.vm_compiles =
      m->GetCounter("vm.compiles", "queries compiled to bytecode");
  ins_.vm_compile_fallbacks = m->GetCounter(
      "vm.compile_fallbacks",
      "queries outside VM coverage, pinned to the tree walker");
  ins_.vm_runs = m->GetCounter("vm.runs", "evaluations completed by the VM");
  ins_.vm_run_fallbacks = m->GetCounter(
      "vm.run_fallbacks",
      "VM runs that errored and were redone by the tree walker");
  ins_.vm_verify_failures = m->GetCounter(
      "vm.verify_failures", "verify_vm cross-checks that found divergence");
  ins_.vm_program_instructions = m->GetGauge(
      "vm.program_instructions",
      "instruction count of the most recently compiled program");
  ins_.index_postings_cre = m->GetGauge(
      "chorel.index_postings_cre", "cre postings in the annotation index");
  ins_.index_postings_upd = m->GetGauge(
      "chorel.index_postings_upd", "upd postings in the annotation index");
  ins_.index_postings_add = m->GetGauge(
      "chorel.index_postings_add", "add postings in the annotation index");
  ins_.index_postings_rem = m->GetGauge(
      "chorel.index_postings_rem", "rem postings in the annotation index");
  PublishCacheStats();
}

void ChorelEngine::Invalidate() {
  if (encoder_.has_value()) obs::Count(ins_.cache_invalidations);
  encoder_.reset();
  PublishCacheStats();
}

void ChorelEngine::PublishCacheStats() {
  if (options_.metrics == nullptr) return;
  if (encoder_.has_value()) {
    ins_.encoder_patch_ops->Set(
        static_cast<int64_t>(encoder_->stats().patch_ops));
    ins_.encoder_aux_allocations->Set(
        static_cast<int64_t>(encoder_->stats().aux_allocations));
  }
  const AnnotationIndex& index = doem_.annotation_index();
  ins_.index_postings_cre->Set(static_cast<int64_t>(index.cre_count()));
  ins_.index_postings_upd->Set(static_cast<int64_t>(index.upd_count()));
  ins_.index_postings_add->Set(static_cast<int64_t>(index.add_count()));
  ins_.index_postings_rem->Set(static_cast<int64_t>(index.rem_count()));
}

Result<const OemDatabase*> ChorelEngine::Encoding() {
  if (!encoder_.has_value()) {
    auto enc = IncrementalEncoder::Create(doem_);
    if (!enc.ok()) return enc.status();
    encoder_ = std::move(enc).value();
    obs::Count(ins_.encoding_rebuilds);
  }
  return &encoder_->encoding();
}

Result<lorel::QueryResult> ChorelEngine::Eval(const lorel::NormQuery& nq,
                                              vm::ProgramCache* cache,
                                              const lorel::GraphView& view,
                                              const lorel::EvalOptions& opts) {
  if (!options_.use_vm) return lorel::Evaluate(nq, view, opts);
  if (cache->state == vm::ProgramCache::State::kUnknown) {
    auto program = vm::Compile(nq);
    if (program.ok()) {
      cache->state = vm::ProgramCache::State::kReady;
      cache->program = std::move(program).value();
      obs::Count(ins_.vm_compiles);
      obs::SetGauge(ins_.vm_program_instructions,
                    static_cast<int64_t>(cache->program.code.size()));
    } else {
      cache->state = vm::ProgramCache::State::kUnsupported;
      obs::Count(ins_.vm_compile_fallbacks);
    }
  }
  if (cache->state == vm::ProgramCache::State::kUnsupported) {
    return lorel::Evaluate(nq, view, opts);
  }
  auto res = vm::Run(cache->program, view, opts);
  if (!res.ok()) {
    // Any VM error — a view capability the hoisted checks rejected, a
    // time operand that did not resolve, max_rows — defers to the tree
    // walker, whose result (including which error, if any) is
    // authoritative.
    obs::Count(ins_.vm_run_fallbacks);
    return lorel::Evaluate(nq, view, opts);
  }
  obs::Count(ins_.vm_runs);
  if (options_.verify_vm) {
    lorel::EvalOptions ref_opts = opts;
    ref_opts.stats = nullptr;  // the VM already contributed its counters
    auto ref = lorel::Evaluate(nq, view, ref_opts);
    bool match = ref.ok() && ref->RowsToString() == res->RowsToString() &&
                 (!opts.package_results || ref->answer.Equals(res->answer));
    if (!match) {
      obs::Count(ins_.vm_verify_failures);
      return Status::Internal(
          "verify_vm: VM result diverges from the tree walker");
    }
  }
  return res;
}

Result<lorel::QueryResult> ChorelEngine::RunCompiled(
    CompiledQuery* q, Strategy strategy, const lorel::EvalOptions& opts) {
  if (strategy == Strategy::kDirect) {
    DoemView view(doem_, options_.seed_from_index);
    return Eval(q->normalized, &q->vm_direct, view, opts);
  }
  if (!q->translated.has_value()) {
    obs::Count(ins_.translation_misses);
    auto translated = TranslateToLorel(q->normalized);
    if (!translated.ok()) return translated.status();
    q->translated = std::move(translated).value();
  } else {
    obs::Count(ins_.translation_hits);
  }
  auto enc = Encoding();
  if (!enc.ok()) return enc.status();
  lorel::OemView view(**enc, /*amp_aware=*/true);
  return Eval(*q->translated, &q->vm_translated, view, opts);
}

Result<lorel::QueryResult> ChorelEngine::Run(const std::string& query,
                                             Strategy strategy,
                                             const lorel::EvalOptions& opts) {
  auto compiled = CompileChorel(query);
  if (!compiled.ok()) return compiled.status();
  return RunCompiled(&*compiled, strategy, opts);
}

Status ChorelEngine::ApplyDelta(Timestamp t, const ChangeSet& ops) {
  if (!options_.incremental) {
    Invalidate();
    return Status::OK();
  }
  const bool patched = encoder_.has_value();
  if (patched) {
    Status s = encoder_->ApplyDelta(doem_, t, ops);
    if (!s.ok()) {
      Invalidate();
      return s;
    }
  }
  if (options_.verify_incremental) {
    Status s = VerifyCaches();
    if (!s.ok()) {
      obs::Count(ins_.verify_failures);
      Invalidate();
      return s;
    }
  }
  if (patched) obs::Count(ins_.cache_patches);
  PublishCacheStats();
  return Status::OK();
}

Status ChorelEngine::VerifyCaches() const {
  if (encoder_.has_value()) {
    auto decoded = DecodeDoem(encoder_->encoding());
    if (!decoded.ok()) {
      return Status::Internal("verify_incremental: patched encoding fails "
                              "to decode: " +
                              decoded.status().message());
    }
    if (!decoded->Equals(doem_)) {
      return Status::Internal(
          "verify_incremental: patched encoding does not decode back to "
          "the DOEM database");
    }
  }
  if (!(AnnotationIndex(doem_) == doem_.annotation_index())) {
    return Status::Internal(
        "verify_incremental: the database's annotation index diverges from "
        "a fresh build");
  }
  return Status::OK();
}

Result<lorel::QueryResult> RunChorel(const DoemDatabase& d,
                                     const std::string& query,
                                     Strategy strategy,
                                     const lorel::EvalOptions& opts) {
  ChorelEngine engine(d);
  return engine.Run(query, strategy, opts);
}

}  // namespace chorel
}  // namespace doem

#include "runtime/kv_cache.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace lia {
namespace runtime {

namespace {

/** BF16 footprint of K+V spans of this geometry. */
double
spanBf16Bytes(std::int64_t batch, std::int64_t length, std::int64_t kv,
              std::int64_t layers)
{
    return 2.0 * 2.0 * static_cast<double>(batch) *
           static_cast<double>(length) * static_cast<double>(kv) *
           static_cast<double>(layers);
}

/**
 * Copy @p tokens token rows of every batch row from @p src (starting
 * at token @p src_start) into @p dst (at token @p dst_start). Both are
 * (B, len, kvDim) with their own len; each batch row's run of tokens
 * is contiguous, so it moves as one memcpy.
 */
void
copyTokens(const Tensor &src, std::int64_t src_start, Tensor &dst,
           std::int64_t dst_start, std::int64_t tokens)
{
    LIA_ASSERT(src.ndim() == 3 && dst.ndim() == 3, "KV must be 3-D");
    const std::int64_t batch = src.dim(0);
    const std::int64_t kv = src.dim(2);
    const std::int64_t src_len = src.dim(1);
    const std::int64_t dst_len = dst.dim(1);
    LIA_ASSERT(dst.dim(0) == batch && dst.dim(2) == kv,
               "KV copy geometry mismatch");
    LIA_ASSERT(tokens >= 0 && src_start >= 0 && dst_start >= 0 &&
                   src_start + tokens <= src_len &&
                   dst_start + tokens <= dst_len,
               "KV copy of ", tokens, " tokens out of range");
    const auto bytes = static_cast<std::size_t>(tokens * kv) *
                       sizeof(float);
    for (std::int64_t b = 0; b < batch; ++b) {
        std::memcpy(dst.data() + (b * dst_len + dst_start) * kv,
                    src.data() + (b * src_len + src_start) * kv, bytes);
    }
}

} // namespace

bool
KvSnapshot::compact() const
{
    if (empty())
        return length == 0;
    return keys.front().ndim() == 3 && keys.front().dim(1) == length;
}

KvSnapshot
KvSnapshot::splitHead(std::int64_t tokens)
{
    LIA_ASSERT(compact(), "splitHead needs a compact snapshot");
    LIA_ASSERT(tokens > 0 && tokens < length,
               "splitHead tokens ", tokens, " out of (0, ", length, ")");
    const std::int64_t batch = keys.front().dim(0);
    const std::int64_t kv = keys.front().dim(2);
    const std::int64_t layers =
        static_cast<std::int64_t>(keys.size());

    KvSnapshot head;
    head.length = tokens;
    head.bytes = spanBf16Bytes(batch, tokens, kv, layers);
    head.keys.reserve(keys.size());
    head.values.reserve(values.size());

    const std::int64_t tail = length - tokens;
    std::vector<Tensor> tailKeys;
    std::vector<Tensor> tailValues;
    tailKeys.reserve(keys.size());
    tailValues.reserve(values.size());
    for (std::size_t l = 0; l < keys.size(); ++l) {
        Tensor hk({batch, tokens, kv});
        Tensor hv({batch, tokens, kv});
        Tensor tk({batch, tail, kv});
        Tensor tv({batch, tail, kv});
        copyTokens(keys[l], 0, hk, 0, tokens);
        copyTokens(values[l], 0, hv, 0, tokens);
        copyTokens(keys[l], tokens, tk, 0, tail);
        copyTokens(values[l], tokens, tv, 0, tail);
        head.keys.push_back(std::move(hk));
        head.values.push_back(std::move(hv));
        tailKeys.push_back(std::move(tk));
        tailValues.push_back(std::move(tv));
    }

    keys = std::move(tailKeys);
    values = std::move(tailValues);
    length = tail;
    bytes = spanBf16Bytes(batch, tail, kv, layers);
    return head;
}

KvSnapshot
KvSnapshot::headCopy(std::int64_t tokens) const
{
    LIA_ASSERT(compact(), "headCopy needs a compact snapshot");
    LIA_ASSERT(tokens > 0 && tokens <= length,
               "headCopy tokens ", tokens, " out of (0, ", length, "]");
    const std::int64_t batch = keys.front().dim(0);
    const std::int64_t kv = keys.front().dim(2);
    const std::int64_t layers =
        static_cast<std::int64_t>(keys.size());

    KvSnapshot head;
    head.length = tokens;
    head.bytes = spanBf16Bytes(batch, tokens, kv, layers);
    head.keys.reserve(keys.size());
    head.values.reserve(values.size());
    for (std::size_t l = 0; l < keys.size(); ++l) {
        Tensor hk({batch, tokens, kv});
        Tensor hv({batch, tokens, kv});
        copyTokens(keys[l], 0, hk, 0, tokens);
        copyTokens(values[l], 0, hv, 0, tokens);
        head.keys.push_back(std::move(hk));
        head.values.push_back(std::move(hv));
    }
    return head;
}

KvCache::KvCache(const model::ModelConfig &config, std::int64_t batch,
                 std::int64_t max_len)
    : config_(config), batch_(batch), maxLen_(max_len)
{
    LIA_ASSERT(batch > 0 && max_len > 0, "bad KV cache dimensions");
    keys_.reserve(static_cast<std::size_t>(config.numLayers));
    values_.reserve(static_cast<std::size_t>(config.numLayers));
    for (std::int64_t l = 0; l < config.numLayers; ++l) {
        keys_.emplace_back(
            std::vector<std::int64_t>{batch, max_len, config.kvDim()});
        values_.emplace_back(
            std::vector<std::int64_t>{batch, max_len, config.kvDim()});
    }
}

void
KvCache::append(std::int64_t layer, const Tensor &k, const Tensor &v)
{
    LIA_ASSERT(k.ndim() == 3 && v.ndim() == 3, "KV must be 3-D");
    LIA_ASSERT(k.dim(0) == batch_ && v.dim(0) == batch_,
               "KV batch mismatch");
    LIA_ASSERT(k.dim(2) == config_.kvDim() &&
               v.dim(2) == config_.kvDim(), "KV width mismatch");
    LIA_ASSERT(v.dim(1) == k.dim(1), "K/V token count mismatch");
    append(layer, k.data(), v.data(), k.dim(1));
}

void
KvCache::append(std::int64_t layer, const float *k, const float *v,
                std::int64_t tokens)
{
    LIA_ASSERT(layer == nextLayer_,
               "layers must append in order; expected ", nextLayer_,
               " got ", layer);
    LIA_ASSERT(tokens > 0, "appending ", tokens, " tokens");
    LIA_ASSERT(length_ + tokens <= maxLen_, "KV cache overflow");
    if (layer == 0)
        pendingTokens_ = tokens;
    LIA_ASSERT(tokens == pendingTokens_,
               "inconsistent token count across layers");

    const std::int64_t kv = config_.kvDim();
    const auto bytes =
        static_cast<std::size_t>(tokens * kv) * sizeof(float);
    Tensor &keys = keys_[static_cast<std::size_t>(layer)];
    Tensor &values = values_[static_cast<std::size_t>(layer)];
    for (std::int64_t b = 0; b < batch_; ++b) {
        const std::int64_t dst = (b * maxLen_ + length_) * kv;
        const std::int64_t src = b * tokens * kv;
        std::memcpy(keys.data() + dst, k + src, bytes);
        std::memcpy(values.data() + dst, v + src, bytes);
    }

    ++nextLayer_;
    if (nextLayer_ == config_.numLayers) {
        nextLayer_ = 0;
        length_ += pendingTokens_;
        pendingTokens_ = 0;
    }
}

KvView
KvCache::view(std::int64_t layer) const
{
    LIA_ASSERT(layer >= 0 && layer < config_.numLayers, "bad layer");
    const auto l = static_cast<std::size_t>(layer);
    return KvView{keys_[l].data(), values_[l].data(), batch_,
                  liveLength(), config_.kvDim(),
                  maxLen_ * config_.kvDim()};
}

Tensor
KvCache::sliceCurrent(const Tensor &full) const
{
    // Include tokens appended mid-step so earlier layers' reads during
    // the same step see their freshly appended KV.
    const std::int64_t len = liveLength();
    Tensor out({batch_, len, config_.kvDim()});
    copyTokens(full, 0, out, 0, len);
    return out;
}

Tensor
KvCache::keys(std::int64_t layer) const
{
    LIA_ASSERT(layer >= 0 && layer < config_.numLayers, "bad layer");
    return sliceCurrent(keys_[static_cast<std::size_t>(layer)]);
}

Tensor
KvCache::values(std::int64_t layer) const
{
    LIA_ASSERT(layer >= 0 && layer < config_.numLayers, "bad layer");
    return sliceCurrent(values_[static_cast<std::size_t>(layer)]);
}

KvSnapshot
KvCache::evict()
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "evicting a cache mid-step (", nextLayer_,
               " layers appended)");
    KvSnapshot snapshot;
    snapshot.length = length_;
    snapshot.bytes = bf16Bytes();
    snapshot.keys = std::move(keys_);
    snapshot.values = std::move(values_);

    keys_.clear();
    values_.clear();
    keys_.reserve(static_cast<std::size_t>(config_.numLayers));
    values_.reserve(static_cast<std::size_t>(config_.numLayers));
    for (std::int64_t l = 0; l < config_.numLayers; ++l) {
        keys_.emplace_back(std::vector<std::int64_t>{
            batch_, maxLen_, config_.kvDim()});
        values_.emplace_back(std::vector<std::int64_t>{
            batch_, maxLen_, config_.kvDim()});
    }
    length_ = 0;
    return snapshot;
}

void
KvCache::truncate(std::int64_t new_length)
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "truncating a cache mid-step (", nextLayer_,
               " layers appended)");
    LIA_ASSERT(new_length >= 0 && new_length <= length_,
               "truncate to ", new_length, " of ", length_, " tokens");
    // Appends always overwrite slots past length_, so the rejected
    // positions' stale bytes are unreachable through keys()/values()/
    // fingerprint()/snapshotRange() — dropping the cursor suffices.
    length_ = new_length;
}

KvSnapshot
KvCache::snapshotRange(std::int64_t start, std::int64_t end) const
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "snapshotting a cache mid-step");
    LIA_ASSERT(start >= 0 && start < end && end <= length_,
               "bad snapshot range [", start, ", ", end, ") of ",
               length_);
    const std::int64_t kv = config_.kvDim();
    const std::int64_t t = end - start;
    KvSnapshot span;
    span.length = t;
    span.bytes = spanBf16Bytes(batch_, t, kv, config_.numLayers);
    span.keys.reserve(keys_.size());
    span.values.reserve(values_.size());
    for (std::size_t l = 0; l < keys_.size(); ++l) {
        Tensor k({batch_, t, kv});
        Tensor v({batch_, t, kv});
        copyTokens(keys_[l], start, k, 0, t);
        copyTokens(values_[l], start, v, 0, t);
        span.keys.push_back(std::move(k));
        span.values.push_back(std::move(v));
    }
    return span;
}

bool
KvCache::preload(const KvSnapshot &span)
{
    if (nextLayer_ > 0 || pendingTokens_ > 0)
        return false;  // never splice into a half-appended step
    if (span.empty() || !span.compact() ||
        span.keys.size() !=
            static_cast<std::size_t>(config_.numLayers) ||
        span.values.size() != span.keys.size())
        return false;
    if (length_ + span.length > maxLen_)
        return false;
    for (const Tensor &k : span.keys) {
        if (k.ndim() != 3 || k.dim(0) != batch_ ||
            k.dim(2) != config_.kvDim())
            return false;
    }

    for (std::size_t l = 0; l < keys_.size(); ++l) {
        copyTokens(span.keys[l], 0, keys_[l], length_, span.length);
        copyTokens(span.values[l], 0, values_[l], length_, span.length);
    }
    length_ += span.length;
    return true;
}

bool
KvCache::restore(KvSnapshot &snapshot)
{
    if (length_ > 0 || nextLayer_ > 0 || pendingTokens_ > 0)
        return false;  // occupied caches refuse a restore
    if (snapshot.empty() ||
        snapshot.keys.size() !=
            static_cast<std::size_t>(config_.numLayers) ||
        snapshot.values.size() != snapshot.keys.size())
        return false;
    if (snapshot.length > maxLen_)
        return false;
    for (const Tensor &k : snapshot.keys) {
        if (k.ndim() != 3 || k.dim(0) != batch_ ||
            k.dim(1) != maxLen_ || k.dim(2) != config_.kvDim())
            return false;
    }

    keys_ = std::move(snapshot.keys);
    values_ = std::move(snapshot.values);
    length_ = snapshot.length;
    snapshot = KvSnapshot{};
    return true;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over one FP32 bit pattern. */
std::uint64_t
mixFloat(std::uint64_t hash, float value)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
        hash ^= (bits >> shift) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

/** Fold one per-token digest into a running position-ordered hash. */
std::uint64_t
foldDigest(std::uint64_t hash, std::uint64_t digest)
{
    for (int shift = 0; shift < 64; shift += 8) {
        hash ^= (digest >> shift) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace

std::vector<std::uint64_t>
KvCache::tokenDigests(std::int64_t len, base::ThreadPool *pool) const
{
    const std::int64_t kv = config_.kvDim();
    if (pool == nullptr)
        pool = &base::ThreadPool::shared();

    // Per-token FNV-1a digests computed in parallel (each token hashes
    // K and V floats of every layer and batch row); callers fold them
    // in position order, so the combination is a pure function of the
    // stored bits and two caches holding bit-identical KV for the
    // prefix fingerprint identically at any thread count.
    std::vector<std::uint64_t> perToken(static_cast<std::size_t>(len));
    pool->parallelFor(
        len, base::ThreadPool::grainFor(2 * config_.numLayers * batch_ * kv),
        [&](std::int64_t t0, std::int64_t t1) {
            for (std::int64_t i = t0; i < t1; ++i) {
                std::uint64_t hash = kFnvOffset;
                for (std::int64_t l = 0; l < config_.numLayers; ++l) {
                    const Tensor &kd =
                        keys_[static_cast<std::size_t>(l)];
                    const Tensor &vd =
                        values_[static_cast<std::size_t>(l)];
                    for (std::int64_t b = 0; b < batch_; ++b) {
                        const std::int64_t base =
                            (b * maxLen_ + i) * kv;
                        const float *kr = kd.data() + base;
                        const float *vr = vd.data() + base;
                        for (std::int64_t c = 0; c < kv; ++c) {
                            hash = mixFloat(hash, kr[c]);
                            hash = mixFloat(hash, vr[c]);
                        }
                    }
                }
                perToken[static_cast<std::size_t>(i)] = hash;
            }
        });
    return perToken;
}

std::uint64_t
KvCache::fingerprint(std::int64_t tokens, base::ThreadPool *pool) const
{
    const std::int64_t len =
        tokens < 0 ? length_ : std::min(tokens, length_);
    std::uint64_t hash = kFnvOffset;
    for (std::uint64_t digest : tokenDigests(len, pool))
        hash = foldDigest(hash, digest);
    return hash;
}

std::vector<std::uint64_t>
KvCache::prefixFingerprints(std::int64_t block, std::int64_t end,
                            base::ThreadPool *pool) const
{
    LIA_ASSERT(block > 0, "prefix fingerprint block ", block);
    LIA_ASSERT(end >= 0 && end <= length_, "prefix fingerprints to ",
               end, " of ", length_, " tokens");
    const std::int64_t boundaries = end / block;
    const std::vector<std::uint64_t> perToken =
        tokenDigests(boundaries * block, pool);
    std::vector<std::uint64_t> out;
    out.reserve(static_cast<std::size_t>(boundaries));
    std::uint64_t hash = kFnvOffset;
    for (std::size_t i = 0; i < perToken.size(); ++i) {
        hash = foldDigest(hash, perToken[i]);
        if ((static_cast<std::int64_t>(i) + 1) % block == 0)
            out.push_back(hash);
    }
    return out;
}

double
KvCache::bf16Bytes() const
{
    return 2.0 * 2.0 * static_cast<double>(batch_) *
           static_cast<double>(length_) *
           static_cast<double>(config_.kvDim()) *
           static_cast<double>(config_.numLayers);
}

} // namespace runtime
} // namespace lia

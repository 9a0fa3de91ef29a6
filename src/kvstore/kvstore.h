#ifndef MARLIN_KVSTORE_KVSTORE_H_
#define MARLIN_KVSTORE_KVSTORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/status.h"

namespace marlin {

/// In-memory key-value store — Marlin's substitute for the Redis database
/// [14] the writer actor publishes actor states into.
///
/// Supports string values and hash (field→value) values with optional TTL
/// expiry, sharded internally for concurrent access from multiple writer
/// actors. `Snapshot`/`ScanPrefix` serve the read side (the middleware API
/// feeding the UI).
class KvStore {
 public:
  /// One field/value pair of a multi-field HSET.
  struct FieldValue {
    std::string field;
    std::string value;
  };

  /// `clock` drives TTL expiry; defaults to the wall clock. `num_shards`
  /// bounds lock contention. `metrics` is the registry op counters report
  /// into (null = process global).
  explicit KvStore(const Clock* clock = nullptr, int num_shards = 16,
                   obs::MetricsRegistry* metrics = nullptr);

  // -- String commands -------------------------------------------------

  /// SET key value. Overwrites any previous value (string or hash) and
  /// clears any TTL.
  void Set(const std::string& key, std::string value);

  /// GET key. NotFound for absent/expired keys, FailedPrecondition when the
  /// key holds a hash.
  StatusOr<std::string> Get(const std::string& key) const;

  // -- Hash commands ----------------------------------------------------

  /// HSET key field value [field value ...]. Creates the hash if absent
  /// (or expired) and writes every pair under one shard lock with one key
  /// lookup, so a concurrent reader sees all of the pairs or none. Moves
  /// from the pairs' strings. FailedPrecondition, with nothing written,
  /// when the key holds a string; InvalidArgument for an empty `fields`.
  /// Counts one `hset` op per pair.
  Status HSet(const std::string& key, std::span<FieldValue> fields);

  /// HSET key field value: the one-pair form of the call above.
  Status HSet(const std::string& key, const std::string& field,
              std::string value);

  /// HGET key field.
  StatusOr<std::string> HGet(const std::string& key,
                             const std::string& field) const;

  /// HGETALL key. Returns an empty map for absent keys.
  std::map<std::string, std::string> HGetAll(const std::string& key) const;

  // -- Generic commands -------------------------------------------------

  /// DEL key. Returns true when a live key was removed.
  bool Del(const std::string& key);

  /// EXISTS key (expired keys count as absent).
  bool Exists(const std::string& key) const;

  /// EXPIRE key ttl: sets time-to-live from now. False for absent keys.
  bool Expire(const std::string& key, TimeMicros ttl);

  /// Remaining TTL, or nullopt when the key is absent or has no TTL.
  std::optional<TimeMicros> Ttl(const std::string& key) const;

  /// Number of live keys.
  size_t Size() const;

  /// Removes all keys.
  void Clear();

  /// All live keys starting with `prefix`, sorted.
  std::vector<std::string> ScanPrefix(const std::string& prefix) const;

  /// Consistent-enough point-in-time copy of all live string keys (hashes
  /// are rendered as "field=value,..." lines) — the read model consumed by
  /// the UI layer. Sorted by key.
  std::vector<std::pair<std::string, std::string>> Snapshot() const;

  /// Physically removes expired entries; returns the count removed.
  size_t PurgeExpired();

  // -- Persistence --------------------------------------------------------

  /// Serialises all live entries (including TTL deadlines) to a
  /// length-prefixed binary-safe dump — the RDB-style persistence of the
  /// Redis substitute.
  std::string Dump() const;

  /// Restores a Dump() blob into this store (existing keys are cleared
  /// first). Entries whose TTL already passed are skipped.
  Status Restore(const std::string& blob);

 private:
  struct Entry {
    std::string value;
    std::map<std::string, std::string> hash;
    bool is_hash = false;
    TimeMicros expires_at = 0;  // 0 = no expiry
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
  };

  TimeMicros Now() const;
  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  bool IsExpired(const Entry& entry, TimeMicros now) const {
    return entry.expires_at != 0 && entry.expires_at <= now;
  }

  /// Cached members of marlin_kv_ops_total{op=...} plus the purge counter,
  /// fetched once at construction so op paths never touch the registry.
  struct Metrics {
    obs::Counter* set = nullptr;
    obs::Counter* get = nullptr;
    obs::Counter* hset = nullptr;
    obs::Counter* hget = nullptr;
    obs::Counter* hgetall = nullptr;
    obs::Counter* del = nullptr;
    obs::Counter* scan = nullptr;
    obs::Counter* snapshot = nullptr;
    obs::Counter* expired_purged = nullptr;
  };

  const Clock* clock_;
  WallClock default_clock_;
  Metrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace marlin

#endif  // MARLIN_KVSTORE_KVSTORE_H_

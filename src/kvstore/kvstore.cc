#include "kvstore/kvstore.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "chk/chk.h"

namespace marlin {

KvStore::KvStore(const Clock* clock, int num_shards,
                 obs::MetricsRegistry* metrics)
    : clock_(clock != nullptr ? clock : &default_clock_) {
  const int n = std::max(1, num_shards);
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());

  obs::MetricsRegistry* registry = obs::MetricsRegistry::OrGlobal(metrics);
  const std::string ops_name = "marlin_kv_ops_total";
  const std::string ops_help = "KvStore operations by command";
  metrics_.set = registry->GetCounter(ops_name, ops_help, {{"op", "set"}});
  metrics_.get = registry->GetCounter(ops_name, ops_help, {{"op", "get"}});
  metrics_.hset = registry->GetCounter(ops_name, ops_help, {{"op", "hset"}});
  metrics_.hget = registry->GetCounter(ops_name, ops_help, {{"op", "hget"}});
  metrics_.hgetall =
      registry->GetCounter(ops_name, ops_help, {{"op", "hgetall"}});
  metrics_.del = registry->GetCounter(ops_name, ops_help, {{"op", "del"}});
  metrics_.scan = registry->GetCounter(ops_name, ops_help, {{"op", "scan"}});
  metrics_.snapshot =
      registry->GetCounter(ops_name, ops_help, {{"op", "snapshot"}});
  metrics_.expired_purged = registry->GetCounter(
      "marlin_kv_expired_purged_total", "Expired entries physically removed");
}

TimeMicros KvStore::Now() const { return clock_->Now(); }

KvStore::Shard& KvStore::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const KvStore::Shard& KvStore::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void KvStore::Set(const std::string& key, std::string value) {
  metrics_.set->Increment();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = shard.map[key];
  entry.value = std::move(value);
  entry.hash.clear();
  entry.is_hash = false;
  entry.expires_at = 0;
}

StatusOr<std::string> KvStore::Get(const std::string& key) const {
  metrics_.get->Increment();
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || IsExpired(it->second, Now())) {
    return Status::NotFound("key '" + key + "' not found");
  }
  if (it->second.is_hash) {
    return Status::FailedPrecondition("key '" + key + "' holds a hash");
  }
  return it->second.value;
}

Status KvStore::HSet(const std::string& key, std::span<FieldValue> fields) {
  if (fields.empty()) {
    return Status::InvalidArgument("HSET of key '" + key + "' without fields");
  }
  metrics_.hset->Increment(fields.size());
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  Entry& entry = it->second;
  if (inserted || IsExpired(entry, Now())) {
    entry = Entry{};
    entry.is_hash = true;
  } else if (!entry.is_hash) {
    return Status::FailedPrecondition("key '" + key + "' holds a string");
  }
  MARLIN_CHK_INVARIANT(entry.value.empty(),
                       "hash entries must not carry a string value");
  for (FieldValue& pair : fields) {
    entry.hash.insert_or_assign(std::move(pair.field), std::move(pair.value));
  }
  return Status::Ok();
}

Status KvStore::HSet(const std::string& key, const std::string& field,
                     std::string value) {
  FieldValue pair{field, std::move(value)};
  return HSet(key, std::span<FieldValue>(&pair, 1));
}

StatusOr<std::string> KvStore::HGet(const std::string& key,
                                    const std::string& field) const {
  metrics_.hget->Increment();
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || IsExpired(it->second, Now())) {
    return Status::NotFound("key '" + key + "' not found");
  }
  if (!it->second.is_hash) {
    return Status::FailedPrecondition("key '" + key + "' holds a string");
  }
  auto field_it = it->second.hash.find(field);
  if (field_it == it->second.hash.end()) {
    return Status::NotFound("field '" + field + "' not found");
  }
  return field_it->second;
}

std::map<std::string, std::string> KvStore::HGetAll(
    const std::string& key) const {
  metrics_.hgetall->Increment();
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || IsExpired(it->second, Now()) ||
      !it->second.is_hash) {
    return {};
  }
  return it->second.hash;
}

bool KvStore::Del(const std::string& key) {
  metrics_.del->Increment();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  const bool was_live = !IsExpired(it->second, Now());
  shard.map.erase(it);
  return was_live;
}

bool KvStore::Exists(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  return it != shard.map.end() && !IsExpired(it->second, Now());
}

bool KvStore::Expire(const std::string& key, TimeMicros ttl) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || IsExpired(it->second, Now())) return false;
  it->second.expires_at = Now() + ttl;
  MARLIN_CHK_INVARIANT(ttl <= 0 || !IsExpired(it->second, Now()),
                       "a freshly set positive TTL must leave the key live");
  return true;
}

std::optional<TimeMicros> KvStore::Ttl(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  const TimeMicros now = Now();
  if (it == shard.map.end() || IsExpired(it->second, now) ||
      it->second.expires_at == 0) {
    return std::nullopt;
  }
  return it->second.expires_at - now;
}

size_t KvStore::Size() const {
  size_t total = 0;
  const TimeMicros now = Now();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      if (!IsExpired(entry, now)) ++total;
    }
  }
  return total;
}

void KvStore::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
  }
}

std::vector<std::string> KvStore::ScanPrefix(const std::string& prefix) const {
  metrics_.scan->Increment();
  std::vector<std::string> out;
  const TimeMicros now = Now();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      if (!IsExpired(entry, now) && key.rfind(prefix, 0) == 0) {
        out.push_back(key);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::string>> KvStore::Snapshot() const {
  metrics_.snapshot->Increment();
  std::vector<std::pair<std::string, std::string>> out;
  const TimeMicros now = Now();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      if (IsExpired(entry, now)) continue;
      if (entry.is_hash) {
        std::string rendered;
        for (const auto& [field, value] : entry.hash) {
          if (!rendered.empty()) rendered += ",";
          rendered += field + "=" + value;
        }
        out.emplace_back(key, std::move(rendered));
      } else {
        out.emplace_back(key, entry.value);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

void AppendLengthPrefixed(const std::string& data, std::string* out) {
  *out += std::to_string(data.size());
  out->push_back(' ');
  *out += data;
}

/// Reads "<len> <bytes>" from `blob` at `*pos`; false on malformed input.
bool ReadLengthPrefixed(const std::string& blob, size_t* pos,
                        std::string* out) {
  size_t end = *pos;
  while (end < blob.size() && blob[end] != ' ') ++end;
  if (end >= blob.size()) return false;
  const std::string length_text = blob.substr(*pos, end - *pos);
  char* parse_end = nullptr;
  const unsigned long length = std::strtoul(length_text.c_str(), &parse_end, 10);
  if (parse_end == length_text.c_str()) return false;
  const size_t start = end + 1;
  if (start + length > blob.size()) return false;
  *out = blob.substr(start, length);
  *pos = start + length;
  return true;
}

}  // namespace

std::string KvStore::Dump() const {
  std::string out = "MARLINKV1\n";
  const TimeMicros now = Now();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      if (IsExpired(entry, now)) continue;
      out.push_back(entry.is_hash ? 'H' : 'S');
      out.push_back(' ');
      out += std::to_string(entry.expires_at);
      out.push_back(' ');
      AppendLengthPrefixed(key, &out);
      if (entry.is_hash) {
        out.push_back(' ');
        out += std::to_string(entry.hash.size());
        for (const auto& [field, value] : entry.hash) {
          out.push_back(' ');
          AppendLengthPrefixed(field, &out);
          out.push_back(' ');
          AppendLengthPrefixed(value, &out);
        }
      } else {
        out.push_back(' ');
        AppendLengthPrefixed(entry.value, &out);
      }
      out.push_back('\n');
    }
  }
  return out;
}

Status KvStore::Restore(const std::string& blob) {
  const std::string magic = "MARLINKV1\n";
  if (blob.rfind(magic, 0) != 0) {
    return Status::InvalidArgument("not a kvstore dump");
  }
  Clear();
  const TimeMicros now = Now();
  size_t pos = magic.size();
  while (pos < blob.size()) {
    const char kind = blob[pos];
    if (kind != 'S' && kind != 'H') {
      return Status::InvalidArgument("corrupt dump: bad record kind");
    }
    pos += 2;  // kind + space
    size_t space = blob.find(' ', pos);
    if (space == std::string::npos) {
      return Status::InvalidArgument("corrupt dump: missing expiry");
    }
    const TimeMicros expires_at =
        std::strtoll(blob.substr(pos, space - pos).c_str(), nullptr, 10);
    pos = space + 1;
    std::string key;
    if (!ReadLengthPrefixed(blob, &pos, &key)) {
      return Status::InvalidArgument("corrupt dump: bad key");
    }
    Entry entry;
    entry.expires_at = expires_at;
    if (kind == 'H') {
      entry.is_hash = true;
      if (pos >= blob.size() || blob[pos] != ' ') {
        return Status::InvalidArgument("corrupt dump: missing field count");
      }
      ++pos;
      space = blob.find(' ', pos);
      const size_t newline = blob.find('\n', pos);
      const size_t count_end =
          std::min(space == std::string::npos ? blob.size() : space,
                   newline == std::string::npos ? blob.size() : newline);
      const unsigned long fields =
          std::strtoul(blob.substr(pos, count_end - pos).c_str(), nullptr, 10);
      pos = count_end;
      for (unsigned long i = 0; i < fields; ++i) {
        if (pos >= blob.size() || blob[pos] != ' ') {
          return Status::InvalidArgument("corrupt dump: bad hash layout");
        }
        ++pos;
        std::string field, value;
        if (!ReadLengthPrefixed(blob, &pos, &field)) {
          return Status::InvalidArgument("corrupt dump: bad field");
        }
        if (pos >= blob.size() || blob[pos] != ' ') {
          return Status::InvalidArgument("corrupt dump: bad hash layout");
        }
        ++pos;
        if (!ReadLengthPrefixed(blob, &pos, &value)) {
          return Status::InvalidArgument("corrupt dump: bad value");
        }
        entry.hash.emplace(std::move(field), std::move(value));
      }
    } else {
      if (pos >= blob.size() || blob[pos] != ' ') {
        return Status::InvalidArgument("corrupt dump: missing value");
      }
      ++pos;
      if (!ReadLengthPrefixed(blob, &pos, &entry.value)) {
        return Status::InvalidArgument("corrupt dump: bad value");
      }
    }
    if (pos >= blob.size() || blob[pos] != '\n') {
      return Status::InvalidArgument("corrupt dump: missing terminator");
    }
    ++pos;
    if (!IsExpired(entry, now)) {
      MARLIN_CHK_INVARIANT(entry.is_hash ? entry.value.empty()
                                         : entry.hash.empty(),
                           "restored entry must be exclusively string or "
                           "hash shaped");
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map[key] = std::move(entry);
    }
  }
  return Status::Ok();
}

size_t KvStore::PurgeExpired() {
  size_t removed = 0;
  const TimeMicros now = Now();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (IsExpired(it->second, now)) {
        it = shard->map.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  if (removed > 0) metrics_.expired_purged->Increment(removed);
  return removed;
}

}  // namespace marlin

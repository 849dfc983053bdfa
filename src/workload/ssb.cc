#include "workload/ssb.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "engine/morsel.h"
#include "engine/operators.h"
#include "msg/message.h"
#include "workload/work_profiles.h"

namespace ecldb::workload {
namespace {

constexpr char kLineorder[] = "lineorder";
constexpr char kDate[] = "date";
constexpr char kCustomer[] = "customer";
constexpr char kSupplier[] = "supplier";
constexpr char kPart[] = "part";

const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                           "MIDDLE EAST"};

std::string NationName(int64_t nation) {
  // 25 nations, 5 per region; nation 10 is "NATION_10" in region ASIA etc.
  return "NATION_" + std::to_string(nation);
}

std::string CityName(int64_t nation, int64_t city) {
  return "CITY_" + std::to_string(nation) + "_" + std::to_string(city);
}

}  // namespace

std::pair<int, int> SsbWorkload::QueryAt(int i) {
  static constexpr std::pair<int, int> kQueries[SsbWorkload::kNumQueries] = {
      {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {3, 1},
      {3, 2}, {3, 3}, {3, 4}, {4, 1}, {4, 2}, {4, 3}};
  ECLDB_CHECK(i >= 0 && i < kNumQueries);
  return kQueries[i];
}

SsbWorkload::SsbWorkload(engine::Engine* engine, const SsbParams& params)
    : engine_(engine), params_(params) {
  ECLDB_CHECK(engine != nullptr);
  ECLDB_CHECK(params.scale_factor > 0.0);
}

const hwsim::WorkProfile& SsbWorkload::profile() const {
  return params_.indexed ? SsbIndexed() : SsbNonIndexed();
}

int64_t SsbWorkload::SimLineorderRows() const {
  if (params_.sim_lineorder_rows > 0) return params_.sim_lineorder_rows;
  if (lineorder_rows_ > 0) return lineorder_rows_;
  return static_cast<int64_t>(params_.scale_factor * 6'000'000.0);
}

namespace {

/// Relative per-tuple cost of the four query flights: Q1 filters mostly on
/// fact columns (one date probe); Q2/Q3 probe two dimensions; Q4 probes
/// three and computes revenue - supplycost.
double FlightCostFactor(int flight) {
  switch (flight) {
    case 1:
      return 0.6;
    case 2:
      return 1.0;
    case 3:
      return 1.1;
    default:
      return 1.3;
  }
}

}  // namespace

engine::QuerySpec SsbWorkload::MakeQuery(Rng& rng) {
  (void)rng;
  engine::QuerySpec spec;
  spec.profile = &profile();
  const int nparts = engine_->db().num_partitions();
  // A star-join query scans/probes every lineorder partition in parallel;
  // the driver rotates through the 13 queries of the benchmark.
  const auto [flight, number] = QueryAt(next_query_);
  (void)number;
  const double rows_per_part =
      static_cast<double>(SimLineorderRows()) / nparts;
  // With join/zone indexes only a fraction of the fact tuples is touched,
  // but each touch is an expensive probe; without indexes the full shard
  // is scanned cheaply per tuple.
  const double ops_each = FlightCostFactor(flight) *
                          (params_.indexed ? rows_per_part * 0.15 : rows_per_part);
  for (int p = 0; p < nparts; ++p) spec.work.push_back({p, ops_each});
  spec.origin_socket = 0;
  next_query_ = (next_query_ + 1) % kNumQueries;
  return spec;
}

double SsbWorkload::MeanOpsPerQuery() const {
  const double rows = static_cast<double>(SimLineorderRows());
  return params_.indexed ? rows * 0.15 : rows;
}

void SsbWorkload::Load() {
  engine::Database& db = engine_->db();
  using engine::ColumnType;
  db.CreateTable(kLineorder,
                 engine::Schema({{"lo_orderkey", ColumnType::kInt64},
                                 {"lo_custkey", ColumnType::kInt64},
                                 {"lo_suppkey", ColumnType::kInt64},
                                 {"lo_partkey", ColumnType::kInt64},
                                 {"lo_orderdate", ColumnType::kInt64},
                                 {"lo_quantity", ColumnType::kInt64},
                                 {"lo_extendedprice", ColumnType::kInt64},
                                 {"lo_discount", ColumnType::kInt64},
                                 {"lo_revenue", ColumnType::kInt64},
                                 {"lo_supplycost", ColumnType::kInt64}}));
  db.CreateTable(kDate, engine::Schema({{"d_datekey", ColumnType::kInt64},
                                        {"d_year", ColumnType::kInt64},
                                        {"d_yearmonthnum", ColumnType::kInt64},
                                        {"d_weeknuminyear", ColumnType::kInt64}}));
  db.CreateTable(kCustomer, engine::Schema({{"c_custkey", ColumnType::kInt64},
                                            {"c_city", ColumnType::kString},
                                            {"c_nation", ColumnType::kString},
                                            {"c_region", ColumnType::kString}}));
  db.CreateTable(kSupplier, engine::Schema({{"s_suppkey", ColumnType::kInt64},
                                            {"s_city", ColumnType::kString},
                                            {"s_nation", ColumnType::kString},
                                            {"s_region", ColumnType::kString}}));
  db.CreateTable(kPart, engine::Schema({{"p_partkey", ColumnType::kInt64},
                                        {"p_mfgr", ColumnType::kString},
                                        {"p_category", ColumnType::kString},
                                        {"p_brand1", ColumnType::kString}}));

  const double sf = params_.scale_factor;
  // Minimums keep every region/nation populated at tiny test scales.
  num_customers_ = std::max<int64_t>(500, static_cast<int64_t>(30'000 * sf));
  num_suppliers_ = std::max<int64_t>(100, static_cast<int64_t>(2'000 * sf));
  num_parts_ = std::max<int64_t>(
      200, static_cast<int64_t>(200'000 * (1.0 + std::log2(std::max(1.0, sf)))));
  lineorder_rows_ = std::max<int64_t>(1000, static_cast<int64_t>(6'000'000 * sf));

  Rng rng(params_.seed);
  const int nparts = db.num_partitions();

  // Dimensions are replicated into every partition; rows appended in key
  // order so that row id == key - 1 (direct-addressing join index). Every
  // replica is identical by construction (same seed), so only partition 0
  // runs the generators; the others bulk-copy its shards.
  {
    engine::Partition* part = db.partition(0);
    Rng dim_rng(params_.seed);

    engine::Table* date = part->table(kDate);
    int64_t datekey = 0;
    for (int64_t year = 1992; year <= 1998; ++year) {
      for (int64_t day = 0; day < 365; ++day) {
        const int64_t month = day / 31 + 1;
        date->AppendRow({++datekey, year, year * 100 + month, day / 7 + 1});
      }
    }

    engine::Table* cust = part->table(kCustomer);
    for (int64_t k = 1; k <= num_customers_; ++k) {
      const int64_t nation = dim_rng.NextInRange(0, 24);
      const int64_t city = dim_rng.NextInRange(0, 9);
      cust->AppendRow({k, CityName(nation, city), NationName(nation),
                       std::string(kRegions[nation / 5])});
    }

    engine::Table* supp = part->table(kSupplier);
    for (int64_t k = 1; k <= num_suppliers_; ++k) {
      const int64_t nation = dim_rng.NextInRange(0, 24);
      const int64_t city = dim_rng.NextInRange(0, 9);
      supp->AppendRow({k, CityName(nation, city), NationName(nation),
                       std::string(kRegions[nation / 5])});
    }

    engine::Table* pt = part->table(kPart);
    for (int64_t k = 1; k <= num_parts_; ++k) {
      const int64_t mfgr = dim_rng.NextInRange(1, 5);
      const int64_t cat = dim_rng.NextInRange(0, 4);
      const int64_t brand = dim_rng.NextInRange(1, 40);
      const std::string mfgr_s = "MFGR#" + std::to_string(mfgr);
      const std::string cat_s = mfgr_s + std::to_string(cat);
      pt->AppendRow({k, mfgr_s, cat_s, cat_s + std::to_string(brand)});
    }
  }
  for (int p = 1; p < nparts; ++p) {
    engine::Partition* part = db.partition(p);
    for (const char* t : {kDate, kCustomer, kSupplier, kPart}) {
      part->table(t)->CopyContentFrom(*db.partition(0)->table(t));
    }
  }

  // Fact rows are hash-distributed over partitions.
  const int64_t max_datekey = 7 * 365;
  for (int64_t i = 0; i < lineorder_rows_; ++i) {
    engine::Partition* part = db.partition(static_cast<PartitionId>(
        rng.NextBounded(static_cast<uint64_t>(nparts))));
    const int64_t price = rng.NextInRange(100, 10'000);
    const int64_t discount = rng.NextInRange(0, 10);
    part->table(kLineorder)
        ->AppendRow({i + 1, rng.NextInRange(1, num_customers_),
                     rng.NextInRange(1, num_suppliers_),
                     rng.NextInRange(1, num_parts_),
                     rng.NextInRange(1, max_datekey), rng.NextInRange(1, 50),
                     price, discount, price * (100 - discount) / 100,
                     rng.NextInRange(50, 5'000)});
  }
}

namespace {

/// Star-join query plan built from the operator module: predicates over
/// fact and (direct-addressed) dimension columns, group-by refs, and the
/// SUM expression.
struct QueryPlan {
  std::vector<engine::Predicate> predicates;
  std::vector<engine::ColumnRef> group_by;
  engine::ValueExpr value;
};

// Lineorder columns.
constexpr int kLoCust = 1, kLoSupp = 2, kLoPart = 3, kLoDate = 4;
constexpr int kLoQty = 5, kLoPrice = 6, kLoDisc = 7, kLoRev = 8, kLoCost = 9;
// Dimension columns (date: key/year/yearmonth/week; others:
// key/city/nation/region resp. key/mfgr/category/brand1).
constexpr int kDimYear = 1, kDimYearMonth = 2, kDimWeek = 3;
constexpr int kDimCity = 1, kDimNation = 2, kDimRegion = 3;
constexpr int kDimMfgr = 1, kDimCategory = 2, kDimBrand = 3;

/// Builds the plan for query `flight`.`number` against one partition's
/// replicated dimension tables.
QueryPlan PlanQuery(int flight, int number, const engine::Table* date,
                    const engine::Table* cust, const engine::Table* supp,
                    const engine::Table* part) {
  using engine::ColumnRef;
  using engine::Predicate;
  using engine::ValueExpr;
  const ColumnRef year = ColumnRef::Dim(kLoDate, date, kDimYear);
  QueryPlan plan;
  plan.value = ValueExpr::Column(ColumnRef::Fact(kLoRev));
  switch (flight) {
    case 1:
      plan.value = ValueExpr::Product(ColumnRef::Fact(kLoPrice),
                                      ColumnRef::Fact(kLoDisc), 0.01);
      if (number == 1) {
        plan.predicates = {
            Predicate::IntRange(year, 1993, 1993),
            Predicate::IntRange(ColumnRef::Fact(kLoDisc), 1, 3),
            Predicate::IntRange(ColumnRef::Fact(kLoQty), INT64_MIN, 24)};
      } else if (number == 2) {
        plan.predicates = {
            Predicate::IntRange(ColumnRef::Dim(kLoDate, date, kDimYearMonth),
                                199401, 199401),
            Predicate::IntRange(ColumnRef::Fact(kLoDisc), 4, 6),
            Predicate::IntRange(ColumnRef::Fact(kLoQty), 26, 35)};
      } else {
        plan.predicates = {
            Predicate::IntRange(year, 1994, 1994),
            Predicate::IntRange(ColumnRef::Dim(kLoDate, date, kDimWeek), 6, 6),
            Predicate::IntRange(ColumnRef::Fact(kLoDisc), 5, 7),
            Predicate::IntRange(ColumnRef::Fact(kLoQty), 26, 35)};
      }
      break;
    case 2: {
      const ColumnRef brand = ColumnRef::Dim(kLoPart, part, kDimBrand);
      const ColumnRef s_region = ColumnRef::Dim(kLoSupp, supp, kDimRegion);
      if (number == 1) {
        plan.predicates = {
            Predicate::StringEq(ColumnRef::Dim(kLoPart, part, kDimCategory),
                                "MFGR#12"),
            Predicate::StringEq(s_region, "AMERICA")};
      } else if (number == 2) {
        plan.predicates = {Predicate::StringRange(brand, "MFGR#222", "MFGR#2229"),
                           Predicate::StringEq(s_region, "ASIA")};
      } else {
        plan.predicates = {Predicate::StringEq(brand, "MFGR#2239"),
                           Predicate::StringEq(s_region, "EUROPE")};
      }
      plan.group_by = {year, brand};
      break;
    }
    case 3: {
      const ColumnRef c_city = ColumnRef::Dim(kLoCust, cust, kDimCity);
      const ColumnRef s_city = ColumnRef::Dim(kLoSupp, supp, kDimCity);
      const std::vector<std::string> cities = {"CITY_10_1", "CITY_10_2"};
      if (number == 1) {
        plan.predicates = {
            Predicate::StringEq(ColumnRef::Dim(kLoCust, cust, kDimRegion), "ASIA"),
            Predicate::StringEq(ColumnRef::Dim(kLoSupp, supp, kDimRegion), "ASIA"),
            Predicate::IntRange(year, 1992, 1997)};
        plan.group_by = {ColumnRef::Dim(kLoCust, cust, kDimNation),
                         ColumnRef::Dim(kLoSupp, supp, kDimNation), year};
      } else if (number == 2) {
        plan.predicates = {
            Predicate::StringEq(ColumnRef::Dim(kLoCust, cust, kDimNation),
                                "NATION_10"),
            Predicate::StringEq(ColumnRef::Dim(kLoSupp, supp, kDimNation),
                                "NATION_10"),
            Predicate::IntRange(year, 1992, 1997)};
        plan.group_by = {c_city, s_city, year};
      } else if (number == 3) {
        plan.predicates = {Predicate::StringIn(c_city, cities),
                           Predicate::StringIn(s_city, cities),
                           Predicate::IntRange(year, 1992, 1997)};
        plan.group_by = {c_city, s_city, year};
      } else {  // 3.4
        plan.predicates = {
            Predicate::StringIn(c_city, cities),
            Predicate::StringIn(s_city, cities),
            Predicate::IntRange(ColumnRef::Dim(kLoDate, date, kDimYearMonth),
                                199712, 199712)};
        plan.group_by = {c_city, s_city, year};
      }
      break;
    }
    case 4: {
      plan.value = ValueExpr::Difference(ColumnRef::Fact(kLoRev),
                                         ColumnRef::Fact(kLoCost));
      const ColumnRef mfgr = ColumnRef::Dim(kLoPart, part, kDimMfgr);
      if (number == 1) {
        plan.predicates = {
            Predicate::StringEq(ColumnRef::Dim(kLoCust, cust, kDimRegion),
                                "AMERICA"),
            Predicate::StringEq(ColumnRef::Dim(kLoSupp, supp, kDimRegion),
                                "AMERICA"),
            Predicate::StringIn(mfgr, {"MFGR#1", "MFGR#2"})};
        plan.group_by = {year, ColumnRef::Dim(kLoCust, cust, kDimNation)};
      } else if (number == 2) {
        plan.predicates = {
            Predicate::StringEq(ColumnRef::Dim(kLoCust, cust, kDimRegion),
                                "AMERICA"),
            Predicate::StringEq(ColumnRef::Dim(kLoSupp, supp, kDimRegion),
                                "AMERICA"),
            Predicate::IntRange(year, 1997, 1998),
            Predicate::StringIn(mfgr, {"MFGR#1", "MFGR#2"})};
        plan.group_by = {year, ColumnRef::Dim(kLoSupp, supp, kDimNation),
                         ColumnRef::Dim(kLoPart, part, kDimCategory)};
      } else {  // 4.3
        plan.predicates = {
            Predicate::StringEq(ColumnRef::Dim(kLoSupp, supp, kDimNation),
                                "NATION_11"),
            Predicate::IntRange(year, 1997, 1998),
            Predicate::StringEq(ColumnRef::Dim(kLoPart, part, kDimCategory),
                                "MFGR#14")};
        plan.group_by = {year, ColumnRef::Dim(kLoSupp, supp, kDimCity),
                         ColumnRef::Dim(kLoPart, part, kDimBrand)};
      }
      break;
    }
    default:
      ECLDB_CHECK_MSG(false, "unknown query flight");
  }
  return plan;
}

}  // namespace

void SsbWorkload::InstallExecutor() {
  ECLDB_CHECK_MSG(lineorder_rows_ > 0, "call Load() first");
  engine_->scheduler().SetFunctionalExecutor(
      [this](PartitionId p, const msg::Message& m) {
        // Partition-local pipeline for the encoded query; the owning
        // worker holds the partition, so the scan is race-free.
        const int flight = static_cast<int>(m.payload[2]) / 10;
        const int number = static_cast<int>(m.payload[2]) % 10;
        engine::Partition* part = engine_->db().partition(p);
        const engine::Table* lo = part->table(kLineorder);
        const QueryPlan plan =
            PlanQuery(flight, number, part->table(kDate),
                      part->table(kCustomer), part->table(kSupplier),
                      part->table(kPart));
        engine::FilterOperator filter(lo, plan.predicates);
        engine::HashAggregator aggregator(plan.group_by, plan.value);
        // Morsel coordinates (payload[3]): scan only this message's row
        // share of the shard. Count 0 or 1 means the whole partition.
        const int64_t mcount = std::max<int64_t>(msg::MorselCount(m.payload[3]), 1);
        const int64_t mindex = msg::MorselIndex(m.payload[3]);
        const size_t rows = lo->num_rows();
        const size_t begin = static_cast<size_t>(
            static_cast<uint64_t>(mindex) * rows / mcount);
        const size_t end = static_cast<size_t>(
            static_cast<uint64_t>(mindex + 1) * rows / mcount);
        const int64_t scanned =
            engine::RunAggregationPipeline(lo, filter, &aggregator, begin, end);

        // Merge the partial aggregate into the query's pending result.
        PendingResult& pending = pending_[m.query_id];
        if (pending.remaining_tasks == 0) {
          pending.remaining_tasks =
              engine_->db().num_partitions() * static_cast<int>(mcount);
        }
        pending.result.rows_scanned += scanned;
        if (!pending.merged) {
          pending.merged.emplace(plan.group_by, plan.value);
        }
        pending.merged->Merge(aggregator);
        if (--pending.remaining_tasks == 0) {
          pending.result.matches = pending.merged->rows_consumed();
          pending.result.groups =
              static_cast<int>(pending.merged->groups().size());
          pending.result.aggregate = pending.merged->TotalSum();
          async_results_[m.query_id] = pending.result;
          pending_.erase(m.query_id);
        }
      });
}

QueryId SsbWorkload::SubmitQuery(int flight, int number,
                                 int morsels_per_partition) {
  ECLDB_CHECK_MSG(lineorder_rows_ > 0, "call Load() first");
  ECLDB_CHECK(morsels_per_partition >= 1);
  engine::QuerySpec spec;
  spec.profile = &profile();
  const int nparts = engine_->db().num_partitions();
  const double rows_per_part =
      static_cast<double>(SimLineorderRows()) / nparts;
  const double ops_each = FlightCostFactor(flight) *
                          (params_.indexed ? rows_per_part * 0.15 : rows_per_part);
  for (int p = 0; p < nparts; ++p) {
    engine::PartitionWork work;
    work.partition = p;
    work.ops = ops_each;
    work.type = msg::MessageType::kScan;
    work.arg0 = flight * 10 + number;
    work.morsels = morsels_per_partition;
    spec.work.push_back(work);
  }
  spec.origin_socket = 0;
  return engine_->Submit(spec);
}

std::optional<SsbWorkload::QueryResult> SsbWorkload::TakeResult(QueryId id) {
  auto it = async_results_.find(id);
  if (it == async_results_.end()) return std::nullopt;
  QueryResult r = it->second;
  async_results_.erase(it);
  return r;
}

SsbWorkload::QueryResult SsbWorkload::RunQuery(int flight, int number) {
  ECLDB_CHECK_MSG(lineorder_rows_ > 0, "call Load() first");
  engine::Database& db = engine_->db();
  QueryResult result;
  engine::HashAggregator merged({}, engine::ValueExpr::Column(
                                        engine::ColumnRef::Fact(kLoRev)));
  bool merged_init = false;

  // Scan -> filter -> aggregate per partition shard; merge the partial
  // aggregates (what the partition workers' result messages would carry).
  for (int p = 0; p < db.num_partitions(); ++p) {
    engine::Partition* part = db.partition(p);
    const engine::Table* lo = part->table(kLineorder);
    const QueryPlan plan =
        PlanQuery(flight, number, part->table(kDate), part->table(kCustomer),
                  part->table(kSupplier), part->table(kPart));
    engine::FilterOperator filter(lo, plan.predicates);
    engine::HashAggregator aggregator(plan.group_by, plan.value);
    result.rows_scanned += engine::RunMorselAggregationPipeline(
        lo, filter, &aggregator, /*pool=*/nullptr);
    if (!merged_init) {
      merged = engine::HashAggregator(plan.group_by, plan.value);
      merged_init = true;
    }
    merged.Merge(aggregator);
  }
  result.matches = merged.rows_consumed();
  result.aggregate = merged.TotalSum();
  result.groups = static_cast<int>(merged.groups().size());
  return result;
}

}  // namespace ecldb::workload

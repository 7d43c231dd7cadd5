#include "rc/cluster.h"

#include <algorithm>
#include <cstdio>

namespace srpc::rc {

struct RcCluster::NodeBundle {
  Transport* transport = nullptr;
  // Exactly one of the engines is set, matching the cluster flavour.
  std::unique_ptr<rpc::Node> rpc_node;
  std::unique_ptr<spec::SpecEngine> spec_engine;
  std::unique_ptr<RpcKit> kit;
};

RcCluster::NodeBundle& RcCluster::make_node(
    int dc, const std::string& name, bool with_predictor,
    predict::PredictorPtr predictor_override) {
  auto bundle = std::make_unique<NodeBundle>();
  bundle->transport = &geo_->add_machine(dc, name);
  switch (config_.flavor) {
    case Flavor::kGrpc: {
      grpcsim::GrpcSimConfig grpc_config;
      grpc_config.call_timeout = config_.call_timeout;
      grpc_config.retry = config_.retry;
      auto node_config = grpcsim::to_node_config(grpc_config);
      bundle->rpc_node = std::make_unique<rpc::Node>(
          *bundle->transport, *work_executor_, net_->wheel(), node_config);
      bundle->kit = std::make_unique<TradKit>(*bundle->rpc_node);
      break;
    }
    case Flavor::kTrad: {
      rpc::NodeConfig node_config;
      node_config.call_timeout = config_.call_timeout;
      node_config.retry = config_.retry;
      bundle->rpc_node = std::make_unique<rpc::Node>(
          *bundle->transport, *work_executor_, net_->wheel(), node_config);
      bundle->kit = std::make_unique<TradKit>(*bundle->rpc_node);
      break;
    }
    case Flavor::kSpec: {
      spec::SpecConfig spec_config;
      spec_config.call_timeout = config_.call_timeout;
      spec_config.retry = config_.retry;
      spec_config.budget.max_inflight = config_.spec_budget;
      if (with_predictor &&
          (predictor_override != nullptr ||
           config_.read_predictor != predict::Kind::kNone)) {
        predict::ManagerConfig mgr_config;
        mgr_config.adaptive = config_.adaptive_speculation;
        mgr_config.adaptive_config = config_.adaptive;
        mgr_config.admission = admission_;  // shared; null when disabled
        auto predictor = predictor_override != nullptr
                             ? std::move(predictor_override)
                             : predict::make_predictor(config_.read_predictor,
                                                       config_.predictor_config);
        predict_managers_.push_back(
            std::make_unique<predict::SpeculationManager>(std::move(predictor),
                                                          mgr_config));
        predict_managers_.back()->install(spec_config);
      }
      bundle->spec_engine = std::make_unique<spec::SpecEngine>(
          *bundle->transport, *work_executor_, net_->wheel(), spec_config);
      bundle->kit = std::make_unique<SpecKit>(*bundle->spec_engine);
      break;
    }
  }
  nodes_.push_back(std::move(bundle));
  return *nodes_.back();
}

RcCluster::RcCluster(ClusterConfig config) : config_(std::move(config)) {
  num_dcs_ = static_cast<int>(config_.geo.dc_names.size());
  total_shards_ = config_.num_shards + config_.spare_shards;
  // Epoch-1 view: the active shards share the slots round-robin; spares are
  // addressable but own nothing until a migration. The geo topology's DC
  // names drive both machine addressing and the view's logical addresses.
  base_view_ = ClusterView::make_static(num_dcs_, total_shards_,
                                        config_.num_shards);
  base_view_.dc_names = config_.geo.dc_names;

  SimConfig sim_config;
  sim_config.executor_threads = config_.executor_threads;
  sim_config.seed = config_.seed;
  net_ = std::make_unique<SimNetwork>(sim_config);
  const int total_clients = num_dcs_ * config_.clients_per_dc;
  work_executor_ = std::make_unique<Executor>(
      std::max(32, total_clients * 3 + 16), "rc-work");
  geo_ = std::make_unique<GeoTopology>(*net_, config_.geo);

  // Cluster-wide overload admission (DESIGN.md §11): one controller watches
  // the shared work executor's queue depth; every client's manager consults
  // it before speculating. Created before make_node so the managers can
  // capture it.
  if (config_.batch_clients) {
    batch_gauge_ = std::make_shared<batch::BatchQueueGauge>(total_shards_);
  }
  if (config_.flavor == Flavor::kSpec && config_.admission_control) {
    admission_ =
        std::make_shared<predict::AdmissionController>(config_.admission);
    admission_->add_source([exec = work_executor_.get()] {
      predict::PressureSample s;
      s.queue_depth = exec->queue_depth();
      return s;
    });
    // Batch-queue occupancy is a second pressure axis (DESIGN.md §12.6):
    // planned-but-undecided batch operations count against the same ladder.
    if (batch_gauge_ != nullptr) {
      admission_->add_source(batch::batch_pressure_source(batch_gauge_));
    }
  }

  // Preload the dataset once, then copy into every replica.
  std::vector<std::pair<std::string, std::string>> dataset;
  dataset.reserve(config_.num_keys);
  for (std::size_t i = 0; i < config_.num_keys; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08zu", i);
    dataset.emplace_back(key, std::string(config_.value_size, 'v'));
  }

  for (int dc = 0; dc < num_dcs_; ++dc) {
    for (int shard = 0; shard < total_shards_; ++shard) {
      auto& bundle = make_node(dc, "shard" + std::to_string(shard));
      auto store = std::make_unique<kv::VersionedStore>();
      for (const auto& [key, value] : dataset) {
        if (base_view_.shard_of(key) == shard) store->load(key, value, 1);
      }
      CpuModel* cpu = nullptr;
      if (config_.server_cores > 0) {
        cpus_.push_back(std::make_unique<CpuModel>(net_->wheel(),
                                                   config_.server_cores));
        cpu = cpus_.back().get();
      }
      kv::TxnLog* log = nullptr;
      if (!config_.log_dir.empty()) {
        logs_.push_back(std::make_unique<kv::TxnLog>(
            config_.log_dir + "/" + std::to_string(dc) + "." +
            std::to_string(shard) + ".rclog"));
        log = logs_.back().get();
      }
      shard_servers_.push_back(std::make_unique<ShardServer>(
          *bundle.kit, *store, std::make_shared<ViewProvider>(base_view_), dc,
          shard, cpu, config_.costs, log));
      stores_.push_back(std::move(store));
    }
    auto& coord_bundle = make_node(dc, "coord");
    CpuModel* coord_cpu = nullptr;
    if (config_.server_cores > 0) {
      cpus_.push_back(std::make_unique<CpuModel>(net_->wheel(),
                                                 config_.server_cores));
      coord_cpu = cpus_.back().get();
    }
    coordinators_.push_back(std::make_unique<Coordinator>(
        *coord_bundle.kit, std::make_shared<ViewProvider>(base_view_), dc,
        coord_cpu, config_.costs));
  }

  // The viewctl node: hosts the ViewCoordinator driving reconfiguration.
  auto& viewctl_bundle = make_node(0, "viewctl");
  views_ = std::make_shared<ViewProvider>(base_view_);
  view_coordinator_ =
      std::make_unique<ViewCoordinator>(*viewctl_bundle.kit, views_);

  for (int dc = 0; dc < num_dcs_; ++dc) {
    for (int i = 0; i < config_.clients_per_dc; ++i) {
      // Batch clients under kSpec replace the config-selected read predictor
      // with a QueueSeedPredictor: queue-order seeds flow through the same
      // PredictionSupplier/observer hooks (and thus the same accuracy,
      // budget and admission machinery) as ordinary read prediction.
      std::shared_ptr<batch::SeedStore> seeds;
      std::shared_ptr<batch::QueueSeedPredictor> qpredictor;
      if (config_.batch_clients && config_.flavor == Flavor::kSpec) {
        seeds = std::make_shared<batch::SeedStore>();
        qpredictor = std::make_shared<batch::QueueSeedPredictor>(seeds);
      }
      auto& bundle = make_node(dc, "client" + std::to_string(i),
                               /*with_predictor=*/true, qpredictor);
      // One provider per client machine, shared by its RcClient and
      // BatchClient: a wrong-epoch refresh learned by either immediately
      // reroutes the other.
      auto client_views = std::make_shared<ViewProvider>(base_view_);
      RcClientConfig client_config;
      client_config.my_dc = dc;
      clients_.push_back(std::make_unique<RcClient>(*bundle.kit, client_views,
                                                    client_config));
      if (config_.batch_clients) {
        if (seeds != nullptr) seeds->attach_engine(bundle.spec_engine.get());
        batch::BatchClientConfig batch_config;
        batch_config.my_dc = dc;
        batch_config.mode = config_.batch_mode;
        batch_config.txns_per_epoch = config_.batch_txns_per_epoch;
        batch_clients_.push_back(std::make_unique<batch::BatchClient>(
            *bundle.kit, client_views, batch_config, seeds, qpredictor,
            batch_gauge_));
        if (config_.adaptive_batch) {
          // Per-client controller: epoch streams are per client, so the
          // signals (and the right operating point) are too. Non-spec
          // flavours have no engine to speculate with, so the controller
          // only moves on the per-txn/group axis there.
          batch::AdaptiveBatchConfig acfg = config_.adaptive_batch_config;
          acfg.initial_mode = config_.batch_mode;
          acfg.allow_speculative = config_.flavor == Flavor::kSpec;
          batch_clients_.back()->set_controller(
              std::make_shared<batch::AdaptiveBatchController>(acfg));
          batch_clients_.back()->set_admission(admission_);
        }
      }
    }
  }
}

RcCluster::~RcCluster() {
  // Teardown order matters: (1) detach every machine from the network and
  // wait out in-flight deliveries (spec engines also unwind computations
  // parked in spec_block), so no late decide/apply reaches a destroyed
  // server, (2) drain the work executor so no callback still references an
  // engine, (3) destroy engines/servers, (4) the network.
  for (auto& node : nodes_) {
    if (node->spec_engine) {
      node->spec_engine->begin_shutdown();
    } else {
      node->transport->set_receiver(nullptr);
      node->transport->quiesce();
    }
  }
  work_executor_->shutdown();
  // Join the timer thread before destroying servers: pending timers (read
  // retries, service-time completions, view pulls) capture raw server
  // pointers.
  net_->wheel().shutdown();
  view_coordinator_.reset();
  batch_clients_.clear();
  clients_.clear();
  coordinators_.clear();
  shard_servers_.clear();
  nodes_.clear();
  cpus_.clear();
  logs_.clear();
  stores_.clear();
  geo_.reset();
  net_.reset();
  work_executor_.reset();
}

predict::SpeculationManager* RcCluster::client_predictor(int dc, int index) {
  if (predict_managers_.empty()) return nullptr;
  return predict_managers_
      .at(static_cast<std::size_t>(dc * config_.clients_per_dc + index))
      .get();
}

batch::AdaptiveBatchStats RcCluster::adaptive_batch_stats() const {
  batch::AdaptiveBatchStats total;
  for (const auto& client : batch_clients_) {
    if (client->controller() != nullptr) total += client->controller()->stats();
  }
  return total;
}

predict::ManagerStats RcCluster::predict_stats() const {
  predict::ManagerStats total;
  for (const auto& mgr : predict_managers_) total += mgr->stats();
  return total;
}

spec::SpecStats RcCluster::spec_stats() const {
  spec::SpecStats total;
  for (const auto& node : nodes_) {
    if (node->spec_engine) total += node->spec_engine->stats();
  }
  return total;
}

}  // namespace srpc::rc

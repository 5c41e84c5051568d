#include "workload/rubbos.h"

#include <cassert>

#include "sim/distributions.h"

namespace softres::workload {

std::vector<Interaction> RubbosWorkload::default_interactions() {
  // name, browse_w, rw_w, queries, tomcat_mult, mysql_mult, disk_prob, resp_kb
  return {
      {"StoriesOfTheDay", 14.0, 12.0, 2, 0.9, 1.0, 0.01, 12.0},
      {"ViewStory", 22.0, 18.0, 3, 1.0, 1.0, 0.02, 14.0},
      {"ViewComment", 16.0, 13.0, 3, 1.0, 1.1, 0.02, 10.0},
      {"BrowseCategories", 8.0, 6.0, 1, 0.6, 0.8, 0.01, 6.0},
      {"BrowseStoriesByCategory", 10.0, 8.0, 3, 1.0, 1.2, 0.03, 12.0},
      {"BrowseRegions", 3.0, 2.0, 1, 0.6, 0.8, 0.01, 6.0},
      {"BrowseStoriesByRegion", 4.0, 3.0, 3, 1.0, 1.2, 0.03, 12.0},
      {"OlderStories", 6.0, 5.0, 3, 1.0, 1.3, 0.05, 12.0},
      {"SearchInStories", 5.0, 4.0, 4, 1.3, 1.8, 0.08, 10.0},
      {"SearchInComments", 3.0, 2.5, 4, 1.3, 2.0, 0.09, 10.0},
      {"SearchInUsers", 1.5, 1.2, 2, 0.9, 1.2, 0.04, 6.0},
      {"ViewUserInfo", 3.0, 2.5, 2, 0.8, 0.9, 0.02, 7.0},
      {"ViewPageNext", 2.5, 2.0, 3, 1.0, 1.0, 0.02, 12.0},
      {"StoryTextSearch", 1.0, 0.8, 5, 1.5, 2.2, 0.10, 10.0},
      // Write interactions: zero weight in the browse-only mix.
      {"SubmitStory", 0.0, 3.0, 4, 1.4, 1.5, 0.06, 6.0},
      {"PostComment", 0.0, 6.0, 4, 1.3, 1.4, 0.05, 6.0},
      {"ModerateComment", 0.0, 1.5, 3, 1.1, 1.2, 0.04, 6.0},
      {"RegisterUser", 0.5, 1.5, 3, 1.1, 1.1, 0.03, 5.0},
      {"Author:ReviewStories", 0.0, 1.5, 3, 1.1, 1.3, 0.04, 10.0},
      {"Author:AcceptStory", 0.0, 0.8, 4, 1.2, 1.4, 0.05, 6.0},
      {"Author:RejectStory", 0.0, 0.5, 2, 0.9, 1.0, 0.03, 5.0},
      {"AuthorLogin", 0.3, 1.2, 2, 0.8, 0.9, 0.02, 5.0},
      {"UserLogin", 0.2, 2.0, 2, 0.8, 0.9, 0.02, 5.0},
      {"Feedback", 0.0, 1.0, 1, 0.7, 0.8, 0.01, 4.0},
  };
}

namespace {

std::vector<double> mix_weights(const std::vector<Interaction>& table,
                                Mix mix) {
  std::vector<double> w;
  w.reserve(table.size());
  for (const auto& it : table) {
    w.push_back(mix == Mix::kBrowseOnly ? it.browse_weight : it.rw_weight);
  }
  return w;
}

}  // namespace

RubbosWorkload::RubbosWorkload(Mix mix, DemandProfile profile)
    : mix_(mix), profile_(profile), interactions_(default_interactions()),
      choice_(mix_weights(interactions_, mix)) {
  assert(interactions_.size() == 24);
}

double RubbosWorkload::sample_demand(double mean, sim::Rng& rng) const {
  // Constant floor plus exponential tail: keeps the mean exact while giving
  // realistic service-time variability.
  const double v = profile_.variability;
  if (v <= 0.0) return mean;
  return mean * (1.0 - v) + sim::fast_exponential(rng, mean * v);
}

void RubbosWorkload::sample_dynamic(tier::Request& req, sim::Rng& rng) const {
  const std::size_t idx = choice_.sample(rng);
  const Interaction& it = interactions_[idx];
  req.kind = tier::RequestKind::kDynamic;
  req.interaction = static_cast<int>(idx);
  req.num_queries = it.num_queries;
  req.apache_demand_s = sample_demand(profile_.apache_dynamic_s, rng);
  req.tomcat_demand_s =
      sample_demand(profile_.tomcat_base_s * it.tomcat_mult, rng);
  req.cjdbc_demand_s = sample_demand(profile_.cjdbc_per_query_s, rng);
  req.mysql_demand_s =
      sample_demand(profile_.mysql_per_query_s * it.mysql_mult, rng);
  req.mysql_disk_prob = it.disk_prob;
  req.request_bytes = 512.0;
  req.response_bytes = it.response_kb * 1024.0;
}

void RubbosWorkload::sample_static(tier::Request& req, sim::Rng& rng) const {
  req.kind = tier::RequestKind::kStatic;
  req.interaction = -1;
  req.num_queries = 0;
  req.apache_demand_s = sample_demand(profile_.apache_static_s, rng);
  req.tomcat_demand_s = 0.0;
  req.cjdbc_demand_s = 0.0;
  req.mysql_demand_s = 0.0;
  req.mysql_disk_prob = 0.0;
  req.request_bytes = 384.0;
  req.response_bytes = profile_.static_response_kb * 1024.0;
}

double RubbosWorkload::req_ratio() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < interactions_.size(); ++i) {
    acc += choice_.probability(i) *
           static_cast<double>(interactions_[i].num_queries);
  }
  return acc;
}

double RubbosWorkload::mean_tomcat_demand() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < interactions_.size(); ++i) {
    acc += choice_.probability(i) * profile_.tomcat_base_s *
           interactions_[i].tomcat_mult;
  }
  return acc;
}

}  // namespace softres::workload

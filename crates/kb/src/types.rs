//! Entity types and their lexical profiles.
//!
//! The paper evaluates 12 types in three categories (§6.2):
//!
//! * Points of interest: Restaurants, Museums, Theatres, Hotels, Schools,
//!   Universities, Mines;
//! * People: Actors, Singers, Scientists;
//! * Cinema: Films and Simpson's episodes.
//!
//! Universities ⊂ Schools and Simpson's episodes ⊂ Films are deliberate
//! subsumption pairs ("to evaluate the ability of our algorithm to
//! determine the correct fine-grained type of an entity").
//!
//! Each type also carries a **lexical profile** used by the synthetic Web
//! (`teda-websim`) and the name generators (`kb::names`). Two probabilities
//! calibrate the TIN/TIS baselines of Table 1:
//!
//! * [`EntityType::name_type_word_prob`] — how often entity *names* contain
//!   the literal type word ("Louvre **Museum**" yes, "Melisse" no). The
//!   paper's TIN row shows museums/schools high, universities/people/films
//!   zero.
//! * [`EntityType::snippet_type_word_prob`] — how often a *snippet* about
//!   the entity contains the type word. The paper's TIS row shows POI types
//!   moderate-to-high, people and cinema near zero (snippets say "starred
//!   in", "album", not "actor", "singer").
//!
//! Distractor types (Temples, Jazz labels, Parks, Companies) exist in the
//! world and on the synthetic Web but are never annotation targets; they
//! supply the Figure 2 mixed-table scenario and the "Melisse" ambiguity.

use std::fmt;

/// The broad grouping used for Table 1's AVERAGE rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeCategory {
    /// Points of interest of cities (have spatial attributes).
    Poi,
    /// People (highly ambiguous names, no spatial attributes).
    People,
    /// Cinema (films, episodes).
    Cinema,
    /// World-only distractors, never annotation targets.
    Distractor,
}

/// An entity type: the 12 paper evaluation types plus world distractors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityType {
    Restaurant,
    Museum,
    Theatre,
    Hotel,
    School,
    University,
    Mine,
    Actor,
    Singer,
    Scientist,
    Film,
    SimpsonsEpisode,
    // --- distractors ---
    Temple,
    JazzLabel,
    Park,
    Company,
}

impl EntityType {
    /// The 12 annotation targets, in the paper's Table 1 order.
    pub const TARGETS: [EntityType; 12] = [
        EntityType::Restaurant,
        EntityType::Museum,
        EntityType::Theatre,
        EntityType::Hotel,
        EntityType::School,
        EntityType::University,
        EntityType::Mine,
        EntityType::Actor,
        EntityType::Singer,
        EntityType::Scientist,
        EntityType::Film,
        EntityType::SimpsonsEpisode,
    ];

    /// World-only types that are never annotation targets.
    pub const DISTRACTORS: [EntityType; 4] = [
        EntityType::Temple,
        EntityType::JazzLabel,
        EntityType::Park,
        EntityType::Company,
    ];

    /// Every type in the world.
    pub const ALL: [EntityType; 16] = [
        EntityType::Restaurant,
        EntityType::Museum,
        EntityType::Theatre,
        EntityType::Hotel,
        EntityType::School,
        EntityType::University,
        EntityType::Mine,
        EntityType::Actor,
        EntityType::Singer,
        EntityType::Scientist,
        EntityType::Film,
        EntityType::SimpsonsEpisode,
        EntityType::Temple,
        EntityType::JazzLabel,
        EntityType::Park,
        EntityType::Company,
    ];

    /// The Table 1 grouping.
    pub fn category(self) -> TypeCategory {
        use EntityType::*;
        match self {
            Restaurant | Museum | Theatre | Hotel | School | University | Mine => TypeCategory::Poi,
            Actor | Singer | Scientist => TypeCategory::People,
            Film | SimpsonsEpisode => TypeCategory::Cinema,
            Temple | JazzLabel | Park | Company => TypeCategory::Distractor,
        }
    }

    /// Whether tables of this type carry spatial columns (§6.2: all POIs
    /// except Mines have addresses usable for query disambiguation).
    pub fn has_spatial_info(self) -> bool {
        self.category() == TypeCategory::Poi && self != EntityType::Mine
            || matches!(self, EntityType::Temple)
    }

    /// Whether entities of this type are physically located in a city
    /// (drives address generation in the world builder).
    pub fn is_located(self) -> bool {
        matches!(
            self.category(),
            TypeCategory::Poi | TypeCategory::Distractor
        ) && self != EntityType::JazzLabel
            && self != EntityType::Company
    }

    /// The singular type word used in TIN/TIS checks and query phrases
    /// ("Melisse **restaurant**").
    pub fn type_word(self) -> &'static str {
        use EntityType::*;
        match self {
            Restaurant => "restaurant",
            Museum => "museum",
            Theatre => "theatre",
            Hotel => "hotel",
            School => "school",
            University => "university",
            Mine => "mine",
            Actor => "actor",
            Singer => "singer",
            Scientist => "scientist",
            Film => "film",
            SimpsonsEpisode => "episode",
            Temple => "temple",
            JazzLabel => "label",
            Park => "park",
            Company => "company",
        }
    }

    /// The disambiguation phrase appended to training queries (§5.2.1).
    /// Usually the type word; multi-word for Simpson's episodes.
    pub fn query_phrase(self) -> &'static str {
        match self {
            EntityType::SimpsonsEpisode => "simpsons episode",
            other => other.type_word(),
        }
    }

    /// Plural display name, as printed in the paper's tables.
    pub fn display(self) -> &'static str {
        use EntityType::*;
        match self {
            Restaurant => "Restaurants",
            Museum => "Museums",
            Theatre => "Theatres",
            Hotel => "Hotels",
            School => "Schools",
            University => "Universities",
            Mine => "Mines",
            Actor => "Actors",
            Singer => "Singers",
            Scientist => "Scientists",
            Film => "Films",
            SimpsonsEpisode => "Simpson's episodes",
            Temple => "Temples",
            JazzLabel => "Jazz labels",
            Park => "Parks",
            Company => "Companies",
        }
    }

    /// Probability that a generated entity *name* contains the literal type
    /// word (calibrates the TIN baseline: museums high, universities and
    /// people zero — see module docs).
    pub fn name_type_word_prob(self) -> f64 {
        use EntityType::*;
        match self {
            Restaurant => 0.10,
            Museum => 0.60,
            Theatre => 0.22,
            Hotel => 0.10,
            School => 0.55,
            University => 0.0,
            Mine => 0.0,
            Actor | Singer | Scientist => 0.0,
            Film | SimpsonsEpisode => 0.0,
            Temple => 0.5,
            JazzLabel => 0.1,
            Park => 0.7,
            Company => 0.2,
        }
    }

    /// Probability that a snippet about an entity of this type contains the
    /// literal type word at least once (calibrates the TIS baseline).
    pub fn snippet_type_word_prob(self) -> f64 {
        use EntityType::*;
        match self {
            Restaurant => 0.42,
            Museum => 0.55,
            Theatre => 0.45,
            Hotel => 0.55,
            School => 0.68,
            University => 0.68,
            Mine => 0.35,
            Actor => 0.22,
            Singer => 0.08,
            Scientist => 0.08,
            Film => 0.30,
            SimpsonsEpisode => 0.30,
            Temple => 0.5,
            JazzLabel => 0.4,
            Park => 0.6,
            Company => 0.4,
        }
    }

    /// Type-distinctive content words that appear in snippets describing
    /// entities of this type (beyond the literal type word). These are what
    /// the text classifier actually learns.
    pub fn core_terms(self) -> &'static [&'static str] {
        use EntityType::*;
        match self {
            Restaurant => &[
                "menu",
                "cuisine",
                "chef",
                "dining",
                "dishes",
                "reservations",
                "tasting",
                "wine",
                "dinner",
                "culinary",
            ],
            Museum => &[
                "exhibition",
                "collection",
                "gallery",
                "exhibits",
                "artifacts",
                "curated",
                "paintings",
                "heritage",
                "admission",
                "galleries",
            ],
            Theatre => &[
                "stage",
                "performance",
                "plays",
                "tickets",
                "drama",
                "audience",
                "premiere",
                "playhouse",
                "ballet",
                "opera",
            ],
            Hotel => &[
                "rooms",
                "suites",
                "guests",
                "amenities",
                "booking",
                "nightly",
                "concierge",
                "lobby",
                "accommodation",
                "checkout",
            ],
            School => &[
                "students",
                "grade",
                "teachers",
                "pupils",
                "classroom",
                "curriculum",
                "enrollment",
                "elementary",
                "district",
                "tuition",
            ],
            University => &[
                "campus",
                "faculty",
                "research",
                "undergraduate",
                "degree",
                "professors",
                "graduate",
                "lectures",
                "admissions",
                "doctoral",
            ],
            Mine => &[
                "mining",
                "ore",
                "copper",
                "gold",
                "extraction",
                "deposit",
                "shaft",
                "quarry",
                "geology",
                "tonnes",
            ],
            Actor => &[
                "starred",
                "role",
                "cast",
                "screen",
                "hollywood",
                "drama",
                "awarded",
                "portrayed",
                "celebrity",
                "filmography",
            ],
            Singer => &[
                "album",
                "band",
                "vocals",
                "tour",
                "songs",
                "chart",
                "recorded",
                "concert",
                "billboard",
                "acoustic",
            ],
            Scientist => &[
                "research",
                "professor",
                "physics",
                "theory",
                "published",
                "laboratory",
                "discovery",
                "nobel",
                "journal",
                "experiments",
            ],
            Film => &[
                "movie",
                "directed",
                "starring",
                "plot",
                "cinema",
                "box",
                "office",
                "screenplay",
                "soundtrack",
                "premiered",
            ],
            SimpsonsEpisode => &[
                "simpsons",
                "homer",
                "bart",
                "springfield",
                "season",
                "aired",
                "marge",
                "lisa",
                "animated",
                "couch",
            ],
            Temple => &[
                "shrine",
                "worship",
                "sacred",
                "monks",
                "pilgrimage",
                "deity",
                "pagoda",
                "buddhist",
                "prayer",
                "ancient",
            ],
            JazzLabel => &[
                "jazz",
                "records",
                "recordings",
                "musicians",
                "releases",
                "saxophone",
                "quartet",
                "vinyl",
                "sessions",
                "catalog",
            ],
            Park => &[
                "trails",
                "picnic",
                "acres",
                "playground",
                "wildlife",
                "gardens",
                "lawn",
                "recreation",
                "benches",
                "fountain",
            ],
            Company => &[
                "products",
                "industry",
                "headquarters",
                "revenue",
                "employees",
                "founded",
                "services",
                "brand",
                "manufacturing",
                "corporate",
            ],
        }
    }

    /// Words shared across a broad domain (weaker evidence than
    /// `core_terms`): e.g. "visit", "located" for POIs; "career" for
    /// people. Snippets mix these in so types are separable but not
    /// trivially so.
    pub fn domain_terms(self) -> &'static [&'static str] {
        match self.category() {
            TypeCategory::Poi | TypeCategory::Distractor => &[
                "visit", "located", "open", "hours", "city", "historic", "popular", "guide",
                "tour", "local",
            ],
            TypeCategory::People => &[
                "born",
                "career",
                "known",
                "life",
                "family",
                "biography",
                "famous",
                "early",
                "years",
                "worked",
            ],
            TypeCategory::Cinema => &[
                "released",
                "review",
                "rating",
                "watch",
                "story",
                "scenes",
                "series",
                "production",
                "audience",
                "critics",
            ],
        }
    }
}

impl fmt::Display for EntityType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_discriminant_order() {
        // Vote tallies index fixed arrays by `t as usize` and scan them
        // in `ALL` order, so the two orders must agree (and match `Ord`).
        for (i, &t) in EntityType::ALL.iter().enumerate() {
            assert_eq!(t as usize, i, "{t:?}");
        }
        assert!(EntityType::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn target_and_distractor_partition() {
        assert_eq!(EntityType::TARGETS.len(), 12);
        assert_eq!(EntityType::DISTRACTORS.len(), 4);
        assert_eq!(EntityType::ALL.len(), 16);
        for t in EntityType::TARGETS {
            assert_ne!(t.category(), TypeCategory::Distractor);
        }
        for t in EntityType::DISTRACTORS {
            assert_eq!(t.category(), TypeCategory::Distractor);
        }
    }

    #[test]
    fn categories_match_the_paper() {
        use EntityType::*;
        for t in [Restaurant, Museum, Theatre, Hotel, School, University, Mine] {
            assert_eq!(t.category(), TypeCategory::Poi);
        }
        for t in [Actor, Singer, Scientist] {
            assert_eq!(t.category(), TypeCategory::People);
        }
        for t in [Film, SimpsonsEpisode] {
            assert_eq!(t.category(), TypeCategory::Cinema);
        }
    }

    #[test]
    fn mines_have_no_spatial_info() {
        // §6.2: "except Mines, they all have spatial information"
        assert!(!EntityType::Mine.has_spatial_info());
        assert!(EntityType::Restaurant.has_spatial_info());
        assert!(EntityType::Hotel.has_spatial_info());
        assert!(!EntityType::Actor.has_spatial_info());
        assert!(!EntityType::Film.has_spatial_info());
    }

    #[test]
    fn tin_calibration_follows_table1() {
        // Table 1 TIN recall: museums/schools high; universities, mines,
        // people and cinema zero.
        assert!(EntityType::Museum.name_type_word_prob() > 0.5);
        assert!(EntityType::School.name_type_word_prob() > 0.5);
        assert_eq!(EntityType::University.name_type_word_prob(), 0.0);
        assert_eq!(EntityType::Mine.name_type_word_prob(), 0.0);
        assert_eq!(EntityType::Actor.name_type_word_prob(), 0.0);
        assert_eq!(EntityType::Film.name_type_word_prob(), 0.0);
    }

    #[test]
    fn tis_calibration_follows_table1() {
        // TIS recall ≈ P(majority of 10 snippets contain the word): needs
        // per-snippet probability > 0.5 for hotels/schools (R ≈ 0.6–0.9)
        // and well below 0.5 for people/cinema (R ≈ 0).
        assert!(EntityType::School.snippet_type_word_prob() > 0.6);
        assert!(EntityType::Singer.snippet_type_word_prob() < 0.2);
        assert!(EntityType::Film.snippet_type_word_prob() < 0.4);
    }

    #[test]
    fn vocabularies_are_distinct_enough() {
        // No two target types share more than 2 core terms — the classifier
        // needs signal to separate them.
        for (i, a) in EntityType::TARGETS.iter().enumerate() {
            for b in &EntityType::TARGETS[i + 1..] {
                let overlap = a
                    .core_terms()
                    .iter()
                    .filter(|t| b.core_terms().contains(t))
                    .count();
                assert!(overlap <= 2, "{a} and {b} share {overlap} core terms");
            }
        }
    }

    #[test]
    fn query_phrases() {
        assert_eq!(EntityType::Restaurant.query_phrase(), "restaurant");
        assert_eq!(
            EntityType::SimpsonsEpisode.query_phrase(),
            "simpsons episode"
        );
    }

    #[test]
    fn display_names_match_paper_tables() {
        assert_eq!(EntityType::SimpsonsEpisode.display(), "Simpson's episodes");
        assert_eq!(EntityType::University.display(), "Universities");
    }
}

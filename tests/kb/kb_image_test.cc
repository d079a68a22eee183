// Round-trip and corruption tests for the out-of-core KB image format:
// every malformed input must come back as a typed kDataLoss status, never
// a crash or a silently wrong KB.

#include "kb/kb_image.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "robustness/fault_injector.h"
#include "util/random.h"

namespace ceres {
namespace {

Ontology MakeOntology() {
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId person = ontology.AddEntityType("person");
  ontology.AddPredicate("directedBy", film, person, false);
  ontology.AddPredicate("writtenBy", film, person, true);
  return ontology;
}

KnowledgeBase MakeFrozenKb() {
  KnowledgeBase kb(MakeOntology());
  TypeId film = *kb.ontology().TypeByName("film");
  TypeId person = *kb.ontology().TypeByName("person");
  PredicateId directed = *kb.ontology().PredicateByName("directedBy");
  PredicateId wrote = *kb.ontology().PredicateByName("writtenBy");
  EntityId do_the_right_thing = kb.AddEntity(film, "Do the Right Thing");
  EntityId crooklyn = kb.AddEntity(film, "Crooklyn");
  EntityId lee = kb.AddEntity(person, "Spike Lee");
  kb.AddAlias(lee, "S. Lee");
  kb.AddTriple(do_the_right_thing, directed, lee);
  kb.AddTriple(do_the_right_thing, wrote, lee);
  kb.AddTriple(crooklyn, directed, lee);
  kb.Freeze();
  return kb;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/kb_image_" + name;
}

void WriteBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(KbImageTest, SaveThenOpenRoundTrips) {
  KnowledgeBase kb = MakeFrozenKb();
  const std::string path = TempPath("roundtrip.kbi");
  ASSERT_TRUE(kb.SaveImage(path).ok());

  KnowledgeBase::OpenOptions options;
  options.verify_checksum = true;
  Result<KnowledgeBase> mapped = KnowledgeBase::OpenImage(path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mapped());
  EXPECT_TRUE(mapped->frozen());
  EXPECT_FALSE(kb.mapped());

  // The mapped bytes are the heap-frozen bytes.
  std::span<const char> a = kb.image_bytes();
  std::span<const char> b = mapped->image_bytes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::string_view(a.data(), a.size()),
            std::string_view(b.data(), b.size()));

  EXPECT_EQ(mapped->num_entities(), kb.num_entities());
  EXPECT_EQ(mapped->num_triples(), kb.num_triples());
  EXPECT_EQ(mapped->ontology().num_types(), 2);
  EXPECT_EQ(mapped->ontology().num_predicates(), 2);
  EXPECT_EQ(mapped->entity(2).name, "Spike Lee");
  ASSERT_EQ(mapped->entity(2).aliases.size(), 1u);
  EXPECT_EQ(mapped->entity(2).aliases[0], "S. Lee");
  std::remove(path.c_str());
}

TEST(KbImageTest, EmptySectionsRoundTrip) {
  // No aliases and no triples: the alias, triple, object and object-string
  // sections are all empty, and writing them must not read from a null
  // section buffer.
  KnowledgeBase kb(MakeOntology());
  TypeId film = *kb.ontology().TypeByName("film");
  kb.AddEntity(film, "Crooklyn");
  kb.AddEntity(film, "Malcolm X");
  kb.Freeze();
  const std::string path = TempPath("empty_sections.kbi");
  ASSERT_TRUE(kb.SaveImage(path).ok());

  KnowledgeBase::OpenOptions options;
  options.verify_checksum = true;
  Result<KnowledgeBase> mapped = KnowledgeBase::OpenImage(path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_entities(), 2);
  EXPECT_EQ(mapped->num_triples(), 0);
  EXPECT_TRUE(mapped->entity(0).aliases.empty());
  EXPECT_TRUE(mapped->TriplesWithSubject(1).empty());
  EXPECT_EQ(mapped->MatchMentions("malcolm x"), (std::vector<EntityId>{1}));
  std::remove(path.c_str());
}

TEST(KbImageTest, OpenMissingFileIsNotFound) {
  Result<KnowledgeBase> kb =
      KnowledgeBase::OpenImage(TempPath("does_not_exist.kbi"));
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kNotFound);
}

TEST(KbImageTest, ShortFileIsDataLoss) {
  const std::string path = TempPath("short.kbi");
  WriteBytes(path, "CERESKB1 but far too short");
  Result<KnowledgeBase> kb = KnowledgeBase::OpenImage(path);
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(KbImageTest, BadMagicIsDataLoss) {
  KnowledgeBase kb = MakeFrozenKb();
  std::span<const char> image = kb.image_bytes();
  std::string bytes(image.data(), image.size());
  bytes[0] = 'X';
  const std::string path = TempPath("bad_magic.kbi");
  WriteBytes(path, bytes);
  Result<KnowledgeBase> reopened = KnowledgeBase::OpenImage(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(KbImageTest, HeaderTamperingIsDataLoss) {
  // Any header edit (here: the version field) breaks the header checksum.
  KnowledgeBase kb = MakeFrozenKb();
  std::span<const char> image = kb.image_bytes();
  std::string bytes(image.data(), image.size());
  bytes[8] = static_cast<char>(bytes[8] + 1);  // version lives after magic
  const std::string path = TempPath("bad_version.kbi");
  WriteBytes(path, bytes);
  Result<KnowledgeBase> reopened = KnowledgeBase::OpenImage(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(KbImageTest, PayloadGarbleIsCaughtByChecksumVerification) {
  // Flip one payload byte: the structural checks still pass (the header is
  // intact), so a plain open succeeds — but verify_checksum catches it.
  KnowledgeBase kb = MakeFrozenKb();
  std::span<const char> image = kb.image_bytes();
  std::string bytes(image.data(), image.size());
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x5a);
  const std::string path = TempPath("garbled_payload.kbi");
  WriteBytes(path, bytes);

  KnowledgeBase::OpenOptions verify;
  verify.verify_checksum = true;
  Result<KnowledgeBase> checked = KnowledgeBase::OpenImage(path, verify);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(KbImageTest, InjectedFaultsNeverCrashAndNeverPassVerification) {
  // Drive the chaos harness's byte-level faults over the image and require
  // a typed error from the verifying open in every case: truncation breaks
  // the file-size check, garbling breaks a checksum.
  KnowledgeBase kb = MakeFrozenKb();
  std::span<const char> image = kb.image_bytes();
  const std::string_view original(image.data(), image.size());

  FaultInjectionConfig config;
  config.garble_byte_fraction = 0.05;
  KnowledgeBase::OpenOptions verify;
  verify.verify_checksum = true;
  for (FaultType fault : {FaultType::kTruncate, FaultType::kGarble}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      std::string corrupted = CorruptHtml(original, fault, config, &rng);
      if (corrupted == original) continue;  // fault landed on no byte
      const std::string path = TempPath("chaos.kbi");
      WriteBytes(path, corrupted);
      Result<KnowledgeBase> reopened = KnowledgeBase::OpenImage(path, verify);
      ASSERT_FALSE(reopened.ok())
          << FaultTypeName(fault) << " seed " << seed;
      EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
          << reopened.status().ToString();
      std::remove(path.c_str());
    }
  }
}

TEST(KbImageTest, FromBufferRejectsEmptyAndValidatesRefs) {
  Result<KbImage> empty = KbImage::FromBuffer({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kDataLoss);

  KnowledgeBase kb = MakeFrozenKb();
  std::span<const char> image = kb.image_bytes();
  Result<KbImage> good = KbImage::FromBuffer(
      std::vector<char>(image.begin(), image.end()), /*verify_payload=*/true);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->VerifyRefs().ok());
}

}  // namespace
}  // namespace ceres
